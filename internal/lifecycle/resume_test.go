package lifecycle

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// journalLine renders one lifecycle_event journal line.
func journalLine(seq uint64, ev EventData) string {
	data, _ := json.Marshal(ev)
	b, _ := json.Marshal(obs.Entry{Seq: seq, Time: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Event: lifecycleEvent, Data: data})
	return string(b) + "\n"
}

// resumeFixture is a live registry plus two candidate checkpoints that
// both load against it; a candidate's version is "cand-" + its hash.
type resumeFixture struct {
	reg                *serve.Registry
	candPath, quarPath string
	candHash, quarHash string
}

func newResumeFixture(t testing.TB, dir string) *resumeFixture {
	t.Helper()
	reg, live, _ := liveRegistry(t, dir)
	fx := &resumeFixture{reg: reg}
	for _, c := range []struct {
		path, hash *string
		sub        string
		seed       int64
	}{
		{&fx.candPath, &fx.candHash, "cand", 3},
		{&fx.quarPath, &fx.quarHash, "quar", 5},
	} {
		sub := filepath.Join(dir, c.sub)
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		*c.path = candidateFrom(t, sub, live, func(m *core.Model) { jitterParams(m, 1e-9, c.seed) })
		snap, err := reg.LoadCandidate(*c.path)
		if err != nil {
			t.Fatal(err)
		}
		*c.hash = snap.Hash
	}
	return fx
}

// resumeOn builds a controller over a fresh journal at dir, replaces the
// journal file's bytes with data, and calls Resume.
func resumeOn(t testing.TB, fx *resumeFixture, dir string, data []byte) (*Controller, error) {
	t.Helper()
	path := filepath.Join(dir, "lifecycle.jsonl")
	j, err := obs.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Registry: fx.reg, Journal: j, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return c, c.Resume()
}

// TestResumeRejectsQuarantinedResubmission: a journal that reads
// "submitted X, rolled_back X, submitted X" must not bring X back. Resume
// records the refusal and stays idle, as Submit would have.
func TestResumeRejectsQuarantinedResubmission(t *testing.T) {
	dir := t.TempDir()
	fx := newResumeFixture(t, dir)
	quarVersion := "cand-" + fx.quarHash
	sub := EventData{Action: "submitted", Version: quarVersion, Path: fx.quarPath, Phase: "shadow"}
	journal := journalLine(1, sub) +
		journalLine(2, EventData{Action: "rolled_back", Version: quarVersion, Reason: "shadow regression"}) +
		journalLine(3, sub)
	c, err := resumeOn(t, fx, dir, []byte(journal))
	if err != nil {
		t.Fatal(err)
	}
	if cand := c.Candidate(); cand != nil || c.State() != StateIdle {
		t.Fatalf("resume restored quarantined candidate %v in state %v", cand, c.State())
	}
	h := c.History()
	if len(h) != 1 || h[0].Action != "rejected" || h[0].Version != quarVersion ||
		h[0].Reason != "quarantined: shadow regression" {
		t.Fatalf("history %+v, want one quarantined rejection of %s", h, quarVersion)
	}
	expectActions(t, journalActions(t, filepath.Join(dir, "lifecycle.jsonl")), []string{"rejected"})
}

// impliedResume replays the lifecycle entries of a readable journal: the
// candidate left open (submitted, with no promoted, rejected or rolled_back
// after it), the phase it was in, and the hashes rolled_back quarantined.
func impliedResume(entries []obs.Entry) (open *EventData, quarantined map[string]string) {
	quarantined = make(map[string]string)
	for _, e := range entries {
		var ev EventData
		if e.Event != lifecycleEvent || len(e.Data) == 0 || json.Unmarshal(e.Data, &ev) != nil {
			continue
		}
		switch ev.Action {
		case "submitted":
			open = &EventData{Version: ev.Version, Path: ev.Path, Phase: "shadow"}
		case "canary_start":
			if open != nil && open.Version == ev.Version {
				open.Phase = "canary"
			}
		case "resumed":
			if open != nil && open.Version == ev.Version && ev.Phase != "" {
				open.Phase = ev.Phase
			}
		case "promoted", "rejected":
			open = nil
		case "rolled_back":
			if h, ok := strings.CutPrefix(ev.Version, "cand-"); ok {
				quarantined[h] = ev.Reason
			}
			open = nil
		}
	}
	return open, quarantined
}

// FuzzResume feeds Resume damaged lifecycle journals: unknown actions, a
// canary_start before its submitted, duplicate sequence numbers, torn and
// non-JSON lines. The tokens $CAND/$QUAR (paths) and #CAND/#QUAR (hashes)
// are replaced with the fixture's real checkpoints, so mutated journals
// still name loadable candidates. Properties: Resume never panics; it
// fails closed, with an error and no candidate, exactly when the journal
// has a bad line (OpenJournal refuses the same file); otherwise it
// restores the candidate and phase the valid entries imply; and a
// quarantined hash is never the candidate.
func FuzzResume(f *testing.F) {
	fx := newResumeFixture(f, f.TempDir())
	ev := func(action, who, extra string) EventData {
		e := EventData{Action: action, Version: "cand-#" + who, Path: "$" + who}
		if action == "rolled_back" {
			e.Reason = "shadow regression"
		}
		if extra != "" {
			e.Phase = extra
		}
		return e
	}
	l := journalLine
	for _, seed := range []string{
		l(1, ev("submitted", "QUAR", "shadow")) + l(2, ev("rolled_back", "QUAR", "")) + l(3, ev("submitted", "QUAR", "shadow")),
		l(1, ev("submitted", "CAND", "shadow")),
		l(1, ev("submitted", "CAND", "shadow")) + l(2, ev("canary_start", "CAND", "canary")),
		l(1, ev("canary_start", "CAND", "canary")) + l(2, ev("submitted", "CAND", "shadow")),
		l(1, ev("submitted", "CAND", "shadow")) + l(2, ev("exploded", "CAND", "")) + l(3, ev("resumed", "CAND", "canary")),
		l(1, ev("submitted", "CAND", "shadow")) + l(2, ev("rolled_back", "CAND", "")) + l(2, ev("submitted", "CAND", "shadow")),
		l(1, ev("rolled_back", "QUAR", "")) + l(2, ev("submitted", "CAND", "shadow")) + l(3, ev("promoted", "CAND", "")),
		l(1, ev("submitted", "CAND", "shadow")) + `{"seq":2,"event":"lifecycle_ev`,
		l(1, ev("submitted", "CAND", "shadow")) + "not json\n" + l(3, ev("canary_start", "CAND", "canary")),
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		data = []byte(strings.NewReplacer("$CAND", fx.candPath, "$QUAR", fx.quarPath,
			"#CAND", fx.candHash, "#QUAR", fx.quarHash).Replace(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "probe.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, readErr := obs.ReadJournalFile(filepath.Join(dir, "probe.jsonl"))
		if _, openErr := obs.OpenJournal(filepath.Join(dir, "probe.jsonl")); (openErr != nil) != (readErr != nil) {
			t.Fatalf("OpenJournal err %v, but reading the journal gave %v", openErr, readErr)
		}
		c, err := resumeOn(t, fx, dir, data)
		cand := c.Candidate()
		if cand != nil {
			c.mu.Lock()
			reason, bad := c.quarantined[cand.Hash]
			c.mu.Unlock()
			if bad {
				t.Fatalf("quarantined candidate %s (%s) restored", cand.Version, reason)
			}
		}
		if readErr != nil {
			if err == nil || cand != nil || c.State() != StateIdle {
				t.Fatalf("bad journal (%v): Resume err %v, candidate %v, state %v", readErr, err, cand, c.State())
			}
			return
		}
		if err != nil {
			t.Fatalf("readable journal: Resume err %v", err)
		}
		open, quarantined := impliedResume(entries)
		wantVersion, wantState := "", StateIdle
		if open != nil {
			h, _ := strings.CutPrefix(open.Version, "cand-")
			_, bad := quarantined[h]
			if snap, err := fx.reg.LoadCandidate(open.Path); !bad && err == nil && snap.Version == open.Version {
				wantVersion, wantState = open.Version, StateShadow
				if open.Phase == "canary" {
					wantState = StateCanary
				}
			}
		}
		gotVersion := ""
		if cand != nil {
			gotVersion = cand.Version
		}
		if gotVersion != wantVersion || c.State() != wantState {
			t.Fatalf("resumed %q in %v, want %q in %v (open %+v)", gotVersion, c.State(), wantVersion, wantState, open)
		}
	})
}
