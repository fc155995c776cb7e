package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Golden outputs pin the paper-facing results per seed: the Table IV rows
// of offline and the trajectory of online. They are recorded once with
// -record-golden and checked on every run of that seed. For a seed with
// no golden file the run still checks that every op of the run agrees
// with the first.
var recordGolden bool

// goldenDir holds the golden files, relative to the repository root the
// benchmark runs from.
var goldenDir = filepath.Join("perfbench", "golden")

// goldenCheck compares got with the golden file of (workload, seed). It
// reports whether a golden file existed and, if so, whether got equals
// it. JSON encodes every float64 with the shortest text that parses back
// to the same bits, so equal text means bit-equal values.
func goldenCheck(workload string, seed int64, got any) (found, equal bool, err error) {
	text, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		return false, false, err
	}
	text = append(text, '\n')
	path := filepath.Join(goldenDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if recordGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			return false, false, err
		}
		return true, true, os.WriteFile(path, text, 0o644)
	}
	golden, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, false, nil
	}
	if err != nil {
		return false, false, err
	}
	return true, bytes.Equal(golden, text), nil
}

// sameJSON reports whether a and b encode to the same JSON text.
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
