package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"insightalign/internal/atomicfile"
)

// Journal is a machine-readable JSONL run record: one JSON object per
// line, each stamped with a sequence number, wall-clock time, and an event
// name. Training runs journal per-epoch EpochStats, the online tuner
// journals each iteration's chosen recipe sets and QoR, and checkpoint
// save/reload events mark where a trajectory was persisted — enough to
// reconstruct a Fig. 6-style trajectory from the file alone.
//
// Durability: the active segment is kept in memory and rewritten through
// internal/atomicfile on every Record, so a crash never leaves a torn
// line — readers see either the previous complete segment or the new one.
// When the active segment exceeds MaxBytes it rotates: the segment is
// atomically written to <path>.1 (replacing any previous rotation) and the
// active file restarts empty. ReadJournalFile reassembles <path>.1 +
// <path> transparently.
type Journal struct {
	mu       sync.Mutex
	path     string
	buf      []byte
	seq      uint64
	maxBytes int
	now      func() time.Time // test hook
}

// defaultJournalMaxBytes bounds the active segment (and therefore the
// per-Record rewrite cost) before rotation.
const defaultJournalMaxBytes = 1 << 20

// Entry is one journal line.
type Entry struct {
	Seq   uint64          `json:"seq"`
	Time  time.Time       `json:"ts"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// NewJournal opens a journal at path, truncating any previous run's file
// (and its rotation) so the journal describes exactly one run.
func NewJournal(path string) (*Journal, error) {
	j := &Journal{path: path, maxBytes: defaultJournalMaxBytes, now: time.Now}
	os.Remove(path + ".1")
	if err := atomicfile.Write(path, func(io.Writer) error { return nil }); err != nil {
		return nil, fmt.Errorf("obs: create journal: %w", err)
	}
	return j, nil
}

// OpenJournal opens a journal at path, appending to any previous run's
// entries instead of truncating them: the existing active segment is kept
// (and kept being rewritten on Record) and sequence numbers continue past
// the highest one on disk, rotated segment included. This is the durable
// variant for state machines that must survive restarts — the checkpoint
// lifecycle journal replays these entries to restore a shadow or canary
// that was in flight when the process died. A missing file behaves like
// NewJournal.
func OpenJournal(path string) (*Journal, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewJournal(path)
	}
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	entries, err := ReadJournalFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	j := &Journal{path: path, buf: raw, maxBytes: defaultJournalMaxBytes, now: time.Now}
	for _, e := range entries {
		if e.Seq > j.seq {
			j.seq = e.Seq
		}
	}
	return j, nil
}

// Path returns the journal's active file path.
func (j *Journal) Path() string { return j.path }

// Record appends one event. data is marshalled as the entry's "data"
// field; a nil data writes the event line alone. The write is crash-safe:
// the full active segment is atomically replaced.
func (j *Journal) Record(event string, data any) error {
	if j == nil {
		return nil // a nil journal is a disabled journal; callers need no guard
	}
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return fmt.Errorf("obs: journal %s: %w", event, err)
		}
		raw = b
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	line, err := json.Marshal(Entry{Seq: j.seq, Time: j.now().UTC(), Event: event, Data: raw})
	if err != nil {
		return err
	}
	if len(j.buf)+len(line)+1 > j.maxBytes && len(j.buf) > 0 {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	j.buf = append(j.buf, line...)
	j.buf = append(j.buf, '\n')
	return atomicfile.Write(j.path, func(w io.Writer) error {
		_, err := w.Write(j.buf)
		return err
	})
}

// rotateLocked moves the active segment to <path>.1 and restarts empty.
func (j *Journal) rotateLocked() error {
	if err := atomicfile.Write(j.path+".1", func(w io.Writer) error {
		_, err := w.Write(j.buf)
		return err
	}); err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	j.buf = j.buf[:0]
	return nil
}

// ReadJournal parses JSONL entries from r, skipping blank lines. On a bad
// line it returns the entries before it and an error naming the line's
// 1-based number in r (blank lines count).
func ReadJournal(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return out, fmt.Errorf("obs: journal line %d: %w", n, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: journal line %d: %w", n+1, err)
	}
	return out, nil
}

// journalReadGapHook, when non-nil, runs between reading the rotated
// segment and the active file. Test seam: it lets journal_test.go force a
// rotation into exactly the reassembly window that used to drop or
// duplicate the boundary entry.
var journalReadGapHook func()

// readJournalSegments reads <path>.1 (if present) then <path>, returning
// the concatenated entries of whatever both files held at open time.
func readJournalSegments(path string) ([]Entry, error) {
	var out []Entry
	for _, p := range []string{path + ".1", path} {
		if p == path && journalReadGapHook != nil {
			journalReadGapHook()
		}
		f, err := os.Open(p)
		if err != nil {
			if os.IsNotExist(err) && p != path {
				continue
			}
			return nil, err
		}
		es, rerr := ReadJournal(f)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		out = append(out, es...)
	}
	return out, nil
}

// ReadJournalFile reads a journal written by Journal, reassembling the
// rotated segment (<path>.1, if present) before the active one,
// exactly-once at the rotation boundary.
//
// Rotation is two atomic writes (segment → <path>.1, then the shrunken
// active file), so a reader racing it can observe the boundary entries in
// both files (duplicate) or, if the rotation lands between its two opens,
// in neither (the segment it read from <path>.1 was already one rotation
// stale — a drop). Entries carry contiguous sequence numbers, which makes
// both cases detectable: duplicates are deduped by seq (first occurrence
// wins; a given run never reuses a seq), and a gap in the deduped
// sequence means a rotation raced the two opens — re-read, folding every
// attempt's entries into one union so a segment seen on an earlier
// attempt is never lost to a later rotation. Gaps are bounded by the
// journal keeping a single rotation: three attempts suffice unless
// rotations outpace reads indefinitely, in which case the best-effort
// union is returned (still duplicate-free and sorted, possibly missing a
// segment that rotated away — exactly what a crashed run would have kept).
func ReadJournalFile(path string) ([]Entry, error) {
	seen := make(map[uint64]Entry)
	const attempts = 3
	for a := 0; a < attempts; a++ {
		es, err := readJournalSegments(path)
		if err != nil {
			return nil, err
		}
		for _, e := range es {
			if _, dup := seen[e.Seq]; !dup {
				seen[e.Seq] = e
			}
		}
		out := make([]Entry, 0, len(seen))
		for _, e := range seen {
			out = append(out, e)
		}
		sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
		contiguous := true
		for i := 1; i < len(out); i++ {
			if out[i].Seq != out[i-1].Seq+1 {
				contiguous = false
				break
			}
		}
		if contiguous || a == attempts-1 {
			return out, nil
		}
	}
	return nil, nil // unreachable: the last attempt always returns
}
