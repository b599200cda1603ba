package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/faultinject"
)

func sub(name string) Submission {
	return Submission{
		Name:       name,
		Inputs:     []Input{{Path: "data.rec", ProgramName: "count.go", Program: "func Map() {}"}},
		OutputPath: "/tmp/out.kv",
		Conf:       map[string]ConfValue{"threshold": {Kind: "int", Value: "5000"}},
		Tenant:     "acme",
	}
}

// TestRoundTrip drives the full lifecycle: Begin assigns sequential IDs,
// End and Mark attach to them, and Replay/Lookup/Stats agree on the
// result.
func TestRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id1, err := j.Begin(sub("first"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := j.Begin(sub("second"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != "j00000001" || id2 != "j00000002" {
		t.Fatalf("ids = %s, %s", id1, id2)
	}
	if err := j.End(id1, StateDone, "", 42); err != nil {
		t.Fatal(err)
	}
	if err := j.Mark(id2, "interrupted"); err != nil {
		t.Fatal(err)
	}

	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if e := entries[0]; !e.Complete() || e.State() != StateDone || e.End.OutputRecords != 42 {
		t.Fatalf("entry 1 = %+v / %+v", e.Sub, e.End)
	}
	if e := entries[1]; e.Complete() || e.State() != "incomplete" || e.Mark == nil || e.Mark.Note != "interrupted" {
		t.Fatalf("entry 2 = %+v / %+v", e.Sub, e.Mark)
	}
	if got := entries[0].Sub; got.Name != "first" || got.Tenant != "acme" ||
		got.Conf["threshold"].Value != "5000" || len(got.Inputs) != 1 {
		t.Fatalf("submission did not round-trip: %+v", got)
	}

	e, ok, err := j.Lookup(id1)
	if err != nil || !ok || e.Sub.Name != "first" || e.State() != StateDone {
		t.Fatalf("Lookup(%s) = %+v, %v, %v", id1, e, ok, err)
	}
	if _, ok, err := j.Lookup("j00000099"); ok || err != nil {
		t.Fatalf("Lookup of unknown id = %v, %v", ok, err)
	}

	if st := j.Stats(); st.Jobs != 2 || st.Incomplete != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The counters kept since Open agree with a fresh count of the log.
	j2, err := Open(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if st, st2 := j.Stats(), j2.Stats(); st != st2 {
		t.Fatalf("stats after reopen = %+v, want %+v", st2, st)
	}
}

// TestReopenResumesSequence: a journal reopened after a crash must not
// reuse IDs it already handed out.
func TestReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(sub("a")); err != nil {
		t.Fatal(err)
	}
	id2, err := j.Begin(sub("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: drop the handle and reopen.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := j2.Begin(sub("c"))
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id2 || id3 != "j00000003" {
		t.Fatalf("reopened journal assigned %s after %s", id3, id2)
	}
	if des, err := os.ReadDir(dir); err != nil || len(des) != 1 || des[0].Name() != LogName {
		t.Errorf("journal directory holds %v (err %v), want only %s", des, err, LogName)
	}
}

// TestEndIdempotent: recovery may journal the same terminal state twice
// (original completion racing the recovered run); the last write wins and
// replay still sees one entry.
func TestEndIdempotent(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := j.Begin(sub("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.End(id, StateFailed, "first", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.End(id, StateDone, "", 7); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].State() != StateDone || entries[0].End.OutputRecords != 7 {
		t.Fatalf("replay after double End = %+v", entries)
	}
}

// TestCrashAtJournalWrite: with the journal fault point armed, Begin must
// refuse the submission (error, no record, no ID burned into replay).
func TestCrashAtJournalWrite(t *testing.T) {
	faultinject.Set(faultinject.MustParse("journal=1.0;seed=3"))
	defer faultinject.Reset()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(sub("doomed")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Begin under journal fault = %v, want injected error", err)
	}
	faultinject.Reset()
	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused submission left %d entries in the journal", len(entries))
	}
	// Nothing durable was written, so the sequence number is free for the
	// next accept to reuse.
	id, err := j.Begin(sub("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if id != "j00000001" {
		t.Fatalf("post-fault Begin assigned %s", id)
	}
}

// TestParseID accepts exactly the IDs idFor produces.
func TestParseID(t *testing.T) {
	if n, err := ParseID("j00000042"); err != nil || n != 42 {
		t.Fatalf("ParseID = %d, %v", n, err)
	}
	for _, bad := range []string{"", "j", "42", "j42", "jx0000001", "j000000001", "j00000000"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

// TestReplayRejectsCorruptSegment: a complete log line that does not
// decode, or that contradicts the lines before it, must be a loud typed
// error, not silently skipped jobs.
func TestReplayRejectsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(sub("a")); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"undecodable":       "{truncated\n",
		"two records":       `{"end":{"id":"j00000001"},"mark":{"id":"j00000001"}}` + "\n",
		"no record":         "{}\n",
		"malformed id":      `{"end":{"id":"x1"}}` + "\n",
		"end before submit": `{"end":{"id":"j00000002"}}` + "\n",
		"sequence gap":      `{"submit":{"id":"j00000003"}}` + "\n",
	} {
		// The bad line is followed by a good one, so it is not a torn tail.
		raw := append(append(append([]byte{}, good...), bad...), good...)
		if err := os.WriteFile(filepath.Join(dir, LogName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Replay(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Replay = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := j.Lookup("j00000001"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Lookup = %v, want ErrCorrupt", name, err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestTornTail: a last line without its newline is an append a crash cut
// short. Open ignores it, the next Begin cuts it off and reuses its
// sequence number, and the log reads back cleanly.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(sub("a")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"submit":{"id":"j00000002","name":"torn"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with a torn tail: %v", err)
	}
	if st := j2.Stats(); st.Jobs != 1 || st.Incomplete != 1 {
		t.Fatalf("stats with a torn tail = %+v, want 1 job", st)
	}
	id, err := j2.Begin(sub("b"))
	if err != nil {
		t.Fatal(err)
	}
	if id != "j00000002" {
		t.Fatalf("Begin after a torn tail assigned %s, want j00000002", id)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("torn")) || !bytes.HasSuffix(raw, []byte("\n")) {
		t.Fatalf("torn tail not cut off:\n%s", raw)
	}
	entries, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Sub.Name != "b" {
		t.Fatalf("replay after the cut = %+v", entries)
	}
}

// TestTwoWritersShareLog: two journals on one directory (two processes)
// catch up on each other's records before appending, so job IDs stay
// unique and each one's counters include the other's jobs.
func TestTwoWritersShareLog(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		for _, j := range []*Journal{a, b} {
			id, err := j.Begin(sub("x"))
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("job id %s assigned twice", id)
			}
			seen[id] = true
			if err := j.End(id, StateDone, "", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := a.Begin(sub("open")); err != nil {
		t.Fatal(err)
	}
	if err := b.Mark("j00000007", "seen by b"); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Jobs != 7 || st.Incomplete != 1 {
		t.Fatalf("b's stats = %+v, want 7 jobs / 1 incomplete", st)
	}
	e, ok, err := a.Lookup("j00000007")
	if err != nil || !ok || e.Sub.Name != "open" || e.Mark == nil || e.Complete() {
		t.Fatalf("Lookup(j00000007) = %+v, %v, %v", e, ok, err)
	}
}

// TestEndOfUnknownJobRefused: a record that would make the log unreadable
// (an end for a job never submitted, a malformed ID) is refused before it
// reaches the file.
func TestEndOfUnknownJobRefused(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.End("j00000001", StateDone, "", 0); err == nil {
		t.Fatal("End of a job never submitted was accepted")
	}
	if err := j.Mark("bogus", "x"); err == nil {
		t.Fatal("Mark with a malformed id was accepted")
	}
	if _, err := Open(j.Dir()); err != nil {
		t.Fatalf("reopen after refused records: %v", err)
	}
	if st := j.Stats(); st.Jobs != 0 || st.Bytes != 0 {
		t.Fatalf("refused records left %+v", st)
	}
}

// TestLegacySegmentsRefused: a directory from the earlier one-file-per-
// record layout is reported, naming the directory, rather than read as an
// empty journal that would silently drop its jobs.
func TestLegacySegmentsRefused(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"00000001.submit.json", "00000001.end.json", "00000002.submit.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(dir)
	if !errors.Is(err, ErrLegacy) {
		t.Fatalf("Open of a legacy directory = %v, want ErrLegacy", err)
	}
	if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "2 job(s)") || !strings.Contains(msg, "finish or discard") {
		t.Errorf("legacy error does not name the directory, the job count and the remedy: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, LogName)); !os.IsNotExist(err) {
		t.Errorf("Open of a legacy directory created %s (stat err %v)", LogName, err)
	}
}

// FuzzJournalOpen feeds arbitrary log bytes to Open. It must count the
// complete lines or return ErrCorrupt, never panic, and what it counted
// must agree with Replay. Appends are left to the unit tests above: each
// one fsyncs, which would stall the fuzzer's input minimization.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	id1, _ := j.Begin(Submission{Name: "a", Conf: map[string]ConfValue{"k": {Kind: "int", Value: "1"}}})
	id2, _ := j.Begin(Submission{Name: "b"})
	j.End(id1, StateDone, "", 3)
	j.Mark(id2, "interrupted")
	j.End(id2, StateFailed, "x", 0)
	log, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-7])
	f.Add([]byte(`{"submit":{"id":"j00000001"}}` + "\n" + `{"end":{"id":"j00000001"}}` + "\n"))
	f.Add([]byte("\n\n{}"))

	fuzzDir := f.TempDir()
	f.Fuzz(func(t *testing.T, log []byte) {
		if err := os.WriteFile(filepath.Join(fuzzDir, LogName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(fuzzDir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		entries, err := j.Replay()
		if err != nil {
			t.Fatalf("Replay after a clean Open: %v", err)
		}
		incomplete := 0
		for i, e := range entries {
			if e.Sub.ID != idFor(uint64(i+1)) {
				t.Fatalf("entry %d has id %s", i, e.Sub.ID)
			}
			if !e.Complete() {
				incomplete++
			}
		}
		if st := j.Stats(); st.Jobs != len(entries) || st.Incomplete != incomplete || st.Bytes > int64(len(log)) {
			t.Fatalf("stats %+v disagree with %d replayed entries (%d incomplete)", st, len(entries), incomplete)
		}
	})
}
