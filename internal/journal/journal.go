// Package journal is the coordinator's durable job log: an append-only,
// per-System record of every accepted submission and its terminal state,
// kept in the system directory so a restarted coordinator can reconstruct
// what it owed the outside world. The journal is what makes `manimal serve
// -recover` possible — without it, killing the coordinator loses every
// queued and running job without a trace.
//
// # Layout and durability
//
// The journal is one file, <sysdir>/journal/journal.log, of JSON lines
// appended through a durable.Log: each append holds an exclusive lock on
// the file and is fsynced before it returns. A line holds one record:
//
//	{"submit":{...}}   the accepted submission (program source, conf,
//	                   inputs, output path, tenant), appended BEFORE the
//	                   job is handed to the scheduler
//	{"end":{...}}      the terminal state (done/failed/canceled) and
//	                   output record count, appended after commit
//	{"mark":{...}}     a recovery annotation (e.g. "interrupted"),
//	                   appended when a replay finds the job incomplete
//
// A crash mid-append leaves at most a last line without its newline,
// which readers ignore and the next append cuts off; a complete line that
// cannot be decoded is a typed error (ErrCorrupt). A submission whose
// journal append fails is REFUSED, so an accepted job is always
// recoverable. The journal has no compaction: every job's lines are kept.
//
// # Recovery contract
//
// Replay returns one Entry per submission, in sequence order. An entry
// with no end record is INCOMPLETE: the coordinator died while the job
// was queued or running. Re-executing an incomplete entry is safe because
// execution is idempotent at both ends — the result cache serves identical
// re-submissions from committed output, and the engine's atomic per-task
// commit means a partially written output is invisible (only a *.tmp-*
// orphan, which recovery removes). See manimal.System.Recover for the
// replay driver.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"manimal/internal/durable"
	"manimal/internal/faultinject"
)

// LogName is the journal file's name inside the journal directory.
const LogName = "journal.log"

// ErrCorrupt marks a complete journal line that cannot be decoded or that
// contradicts the lines before it. A torn last line is not corruption: it
// is an append that a crash cut short, and readers ignore it.
var ErrCorrupt = errors.New("journal: corrupt")

// ErrLegacy marks a journal directory that still holds the per-record
// files (*.submit.json) of the earlier journal layout, which this one does
// not read.
var ErrLegacy = errors.New("journal: directory in the old one-file-per-record layout")

// Terminal states recorded in End.State (mirroring the engine's terminal
// phases).
const (
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Input is one journaled input: the file path and the full program source
// that consumed it, so recovery can re-parse and resubmit without any
// other surviving state.
type Input struct {
	Path        string `json:"path"`
	ProgramName string `json:"program_name"`
	Program     string `json:"program"`
}

// ConfValue is one conf parameter in kind-tagged string form. JSON cannot
// round-trip the engine's datum types faithfully (every number decodes as
// float64), so the journal stores the kind explicitly.
type ConfValue struct {
	Kind  string `json:"kind"` // "int" | "float" | "string" | "bool"
	Value string `json:"value"`
}

// Submission is the journaled form of one accepted job: everything needed
// to resubmit it identically after a coordinator restart. Runtime-only
// tuning that should not survive a restart (StartupDelay models the
// original submission's launch latency, not the job's identity) is
// deliberately absent.
type Submission struct {
	ID                  string               `json:"id"`
	Name                string               `json:"name"`
	Inputs              []Input              `json:"inputs"`
	OutputPath          string               `json:"output_path"`
	Conf                map[string]ConfValue `json:"conf,omitempty"`
	MapOnly             bool                 `json:"map_only,omitempty"`
	SortedOutput        bool                 `json:"sorted_output,omitempty"`
	SafeMode            bool                 `json:"safe_mode,omitempty"`
	DisableOptimization bool                 `json:"disable_optimization,omitempty"`
	NumReducers         int                  `json:"num_reducers,omitempty"`
	MaxParallelTasks    int                  `json:"max_parallel_tasks,omitempty"`
	Tenant              string               `json:"tenant,omitempty"`
	SubmittedAt         time.Time            `json:"submitted_at"`
}

// End records a job's terminal state.
type End struct {
	ID            string    `json:"id"`
	State         string    `json:"state"` // done | failed | canceled
	Error         string    `json:"error,omitempty"`
	OutputRecords int64     `json:"output_records,omitempty"`
	FinishedAt    time.Time `json:"finished_at"`
}

// Mark is a recovery annotation on a job (latest one wins).
type Mark struct {
	ID   string    `json:"id"`
	Note string    `json:"note"`
	At   time.Time `json:"at"`
}

// Entry is one job's replayed journal state.
type Entry struct {
	Sub  Submission
	End  *End
	Mark *Mark
}

// Complete reports whether the job reached a terminal state before the
// journal was last written. Incomplete entries are what recovery resubmits.
func (e *Entry) Complete() bool { return e.End != nil }

// State returns the entry's terminal state, or "incomplete".
func (e *Entry) State() string {
	if e.End != nil {
		return e.End.State
	}
	return "incomplete"
}

// Stats summarizes a journal for operational endpoints.
type Stats struct {
	Dir        string `json:"dir"`
	Jobs       int    `json:"jobs"`
	Incomplete int    `json:"incomplete"`
	Bytes      int64  `json:"bytes"`
}

// record is one journal line; exactly one field is set.
type record struct {
	Submit *Submission `json:"submit,omitempty"`
	End    *End        `json:"end,omitempty"`
	Mark   *Mark       `json:"mark,omitempty"`
}

// head returns the job ID and kind of the record, and how many of its
// fields are set.
func (r *record) head() (id, kind string, n int) {
	if r.Submit != nil {
		id, kind, n = r.Submit.ID, "submit", n+1
	}
	if r.End != nil {
		id, kind, n = r.End.ID, "end", n+1
	}
	if r.Mark != nil {
		id, kind, n = r.Mark.ID, "mark", n+1
	}
	return id, kind, n
}

// tally checks and counts a sequence of records.
type tally struct {
	seq  uint64              // jobs submitted; Begin numbers them 1, 2, ...
	open map[uint64]struct{} // submitted jobs without an end record
}

// check returns the sequence number of rec's job, or an ErrCorrupt error
// if rec cannot follow the records counted so far.
func (t *tally) check(rec *record) (uint64, error) {
	id, _, n := rec.head()
	seq, err := ParseID(id)
	switch {
	case n != 1:
		err = fmt.Errorf("a line holds %d records, want 1", n)
	case err != nil:
	case rec.Submit != nil && seq != t.seq+1:
		err = fmt.Errorf("submission %s does not follow %s", id, idFor(t.seq))
	case rec.Submit == nil && seq > t.seq:
		err = fmt.Errorf("record for %s before its submission", id)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return seq, nil
}

// count adds rec, which check accepted as job seq.
func (t *tally) count(rec *record, seq uint64) {
	if t.open == nil {
		t.open = make(map[uint64]struct{})
	}
	if rec.Submit != nil {
		t.seq = seq
		t.open[seq] = struct{}{}
	} else if rec.End != nil {
		delete(t.open, seq)
	}
}

// add decodes, checks and counts one line.
func (t *tally) add(line []byte) (record, uint64, error) {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	seq, err := t.check(&rec)
	if err == nil {
		t.count(&rec, seq)
	}
	return rec, seq, err
}

// Journal is one system's job log. Safe for concurrent use; every record
// is fsynced before the call that appends it returns.
type Journal struct {
	dir  string
	path string

	mu  sync.Mutex
	t   tally // the records up to end
	end int64 // offset just past the last record counted
}

// Open opens the journal in dir (creating the directory) and counts its
// records, resuming the sequence after the highest job ID. A directory
// still holding the earlier layout's files is an ErrLegacy error.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	legacy := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".submit.json") {
			legacy++
		}
	}
	if legacy > 0 {
		return nil, fmt.Errorf("%w: %s holds %d job(s) as *.submit.json files; finish or discard those jobs "+
			"first, with the release that wrote them", ErrLegacy, dir, legacy)
	}
	j := &Journal{dir: dir, path: filepath.Join(dir, LogName)}
	l, err := durable.ReadLog(j.path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer l.Close()
	if err := j.catchUp(l); err != nil {
		return nil, err
	}
	return j, nil
}

// catchUp counts the records in l past the ones already counted: at Open
// all of them, before an append those other processes added. Callers hold
// j.mu or own j alone.
func (j *Journal) catchUp(l *durable.Log) error {
	err := l.Scan(j.end, func(line []byte) error {
		_, _, err := j.t.add(line)
		return err
	})
	j.end = l.End()
	if err != nil {
		return fmt.Errorf("%w (%s, line at byte %d)", err, j.path, j.end)
	}
	return nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Begin journals an accepted submission and returns its assigned job ID
// ("j" + 8-digit sequence). The record is durable when Begin returns; on
// error nothing was accepted and the caller must refuse the submission.
func (j *Journal) Begin(sub Submission) (string, error) {
	if sub.SubmittedAt.IsZero() {
		sub.SubmittedAt = time.Now()
	}
	err := j.append(func() *record {
		sub.ID = idFor(j.t.seq + 1)
		return &record{Submit: &sub}
	})
	if err != nil {
		return "", err
	}
	return sub.ID, nil
}

// End journals a job's terminal state. Ending the same job again appends
// another end record, and the last one wins (recovery re-runs a job under
// its original ID).
func (j *Journal) End(id, state, errText string, outputRecords int64) error {
	return j.append(func() *record {
		return &record{End: &End{ID: id, State: state, Error: errText, OutputRecords: outputRecords, FinishedAt: time.Now()}}
	})
}

// Mark annotates a job (e.g. "interrupted; resubmitted by recovery"); the
// latest mark wins.
func (j *Journal) Mark(id, note string) error {
	return j.append(func() *record {
		return &record{Mark: &Mark{ID: id, Note: note, At: time.Now()}}
	})
}

// append commits the record build returns as one log line. build runs
// under the log lock after the records other processes appended have been
// counted, so a new submission's sequence number is unique across them.
// The faultinject journal point fires, keyed "<id>.<kind>", before the
// record reaches the file.
func (j *Journal) append(build func() *record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	l, err := durable.AppendLog(j.path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer l.Close() // releases the lock
	if err := j.catchUp(l); err != nil {
		return err
	}
	rec := build()
	id, kind, _ := rec.head()
	seq, err := j.t.check(rec)
	if err != nil {
		return fmt.Errorf("journal: refusing %s record for %q: %w", kind, id, err)
	}
	if err := faultinject.Fail(faultinject.PointJournal, id+"."+kind); err != nil {
		return fmt.Errorf("journal: writing %s.%s: %w", id, kind, err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := l.Append(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.t.count(rec, seq)
	j.end = l.End()
	return nil
}

// Replay reads the whole journal and returns one entry per submission in
// sequence order.
func (j *Journal) Replay() ([]Entry, error) { return j.read(0) }

// Lookup returns one job's journal entry by ID.
func (j *Journal) Lookup(id string) (Entry, bool, error) {
	seq, err := ParseID(id)
	if err != nil {
		return Entry{}, false, nil
	}
	entries, err := j.read(seq)
	if err != nil || len(entries) == 0 {
		return Entry{}, false, err
	}
	return entries[0], true, nil
}

// read reads the log under a shared lock and returns the entries of every
// job, or of job only when it is not 0.
func (j *Journal) read(job uint64) ([]Entry, error) {
	l, err := durable.ReadLog(j.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer l.Close()
	var (
		t       tally
		entries []Entry
		at      = make(map[uint64]int) // seq -> index in entries
	)
	err = l.Scan(0, func(line []byte) error {
		rec, seq, err := t.add(line)
		if err != nil || (job != 0 && seq != job) {
			return err
		}
		switch {
		case rec.Submit != nil:
			at[seq] = len(entries)
			entries = append(entries, Entry{Sub: *rec.Submit})
		case rec.End != nil:
			entries[at[seq]].End = rec.End
		case rec.Mark != nil:
			entries[at[seq]].Mark = rec.Mark
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w (%s, line at byte %d)", err, j.path, l.End())
	}
	return entries, nil
}

// Stats summarizes the journal from counters kept since Open; its cost
// does not grow with the history.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{Dir: j.dir, Jobs: int(j.t.seq), Incomplete: len(j.t.open), Bytes: j.end}
}

// idFor formats a sequence number as a job ID.
func idFor(seq uint64) string { return fmt.Sprintf("j%08d", seq) }

// ParseID extracts the sequence number from a journal job ID.
func ParseID(id string) (uint64, error) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok || len(digits) != 8 {
		return 0, fmt.Errorf("journal: malformed job id %q", id)
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || seq == 0 {
		return 0, fmt.Errorf("journal: malformed job id %q", id)
	}
	return seq, nil
}
