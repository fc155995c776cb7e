package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzReadJournal feeds ReadJournal arbitrary bytes. It must never panic,
// and it must return either every non-blank line's entry, or the entries
// before the first bad line plus an error naming that line's 1-based
// number. The expected result comes from an independent line split, so
// the property checks ReadJournal's framing: line numbering, blank-line
// skipping, lines past the scanner's initial 64 KiB buffer, and entries
// that must not alias the scanner's reused buffer. Crashes land in
// internal/obs/testdata/fuzz/.
func FuzzReadJournal(f *testing.F) {
	ts := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	line := func(seq uint64, event string, data any) string {
		var raw json.RawMessage
		if data != nil {
			raw, _ = json.Marshal(data)
		}
		b, _ := json.Marshal(Entry{Seq: seq, Time: ts, Event: event, Data: raw})
		return string(b)
	}
	e1 := line(1, "train_epoch", map[string]any{"epoch": 0, "loss": 0.5})
	e2 := line(2, "checkpoint_saved", nil)
	big := line(3, "big", map[string]string{"pad": strings.Repeat("x", 70<<10)})
	for _, seed := range []string{
		e1 + "\n" + e2 + "\n",                 // valid two-entry journal
		e1 + "\n" + e2[:len(e2)/2],            // torn last line
		"\n" + e1 + "\n\n \t\r\n" + e2 + "\n", // blank lines
		"\n" + e1 + "\n\n" + e2[:len(e2)/2],   // blank lines, then a torn line
		e1 + "\r\n" + e2 + "\r\n",             // CRLF line ends
		e1 + "\n" + big + "\n" + e2 + "\n",    // a line past 64 KiB
		"",
		"null\n{}\n",
		"{\"seq\":1}\n{\"seq\":\n{\"seq\":3}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8<<20 {
			return // past the scanner's line cap; not a framing question
		}
		got, err := ReadJournal(bytes.NewReader(data))

		var want []Entry
		bad := 0
		lines := bytes.Split(data, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		for i, l := range lines {
			l = bytes.TrimSpace(l)
			if len(l) == 0 {
				continue
			}
			var e Entry
			if json.Unmarshal(l, &e) != nil {
				bad = i + 1
				break
			}
			want = append(want, e)
		}

		switch {
		case bad == 0 && err != nil:
			t.Fatalf("every line parses, but ReadJournal failed: %v", err)
		case bad != 0 && err == nil:
			t.Fatalf("line %d is bad, but ReadJournal returned no error", bad)
		case bad != 0 && !strings.Contains(err.Error(), fmt.Sprintf("line %d:", bad)):
			t.Fatalf("error %q does not name bad line %d", err, bad)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d entries, want %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Seq != w.Seq || g.Event != w.Event || !g.Time.Equal(w.Time) || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("entry %d = %+v, want %+v", i, g, w)
			}
		}
	})
}
