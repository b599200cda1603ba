package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"manimal/internal/durable"
)

const (
	fileName  = "manimal-catalog.json"
	logSuffix = ".log"
	// compactSlack is the constant term of the compaction threshold: the
	// log is folded into the snapshot once it holds more than
	// 2×entries+compactSlack ops, which bounds it to a small multiple of
	// the snapshot's size.
	compactSlack = 64
)

// ErrCorrupt marks a snapshot or a complete log line that cannot be
// decoded. A torn last log line is not corruption: it is an append that a
// crash cut short, and Open ignores it.
var ErrCorrupt = errors.New("catalog: corrupt")

// Log op kinds. Each op is idempotent against a state that already
// contains it, which is what makes replaying an untruncated log over a
// freshly compacted snapshot safe.
const (
	opAdd        = "add"        // put Entry, replacing its IndexPath
	opRemove     = "remove"     // delete Index
	opEvict      = "evict"      // delete every path in Indexes
	opQuarantine = "quarantine" // mark Index CORRUPT with Reason
	opHits       = "hits"       // set Index's hit count to Hits (absolute)
)

// logOp is one line of the append log.
type logOp struct {
	Op      string   `json:"op"`
	Entry   *Entry   `json:"entry,omitempty"`
	Index   string   `json:"index,omitempty"`
	Indexes []string `json:"indexes,omitempty"`
	Reason  string   `json:"reason,omitempty"`
	Hits    int64    `json:"hits,omitempty"`
}

// logState is the persistence side of a Catalog, guarded by its mutex.
type logState struct {
	snapPath string
	logPath  string
	// snap is the snapshot file the entries were loaded from or last
	// compacted into (nil when there was none). A compaction in another
	// process replaces it, which tells the next mutation to reload.
	snap os.FileInfo
	// size is the length of the log's complete ops that the entries
	// include; ops counts them.
	size int64
	ops  int
}

// Open loads the catalog in the given directory: the snapshot, then the
// log up to its last complete line. It never writes, and a missing
// directory or files read as an empty catalog.
func Open(dir string) (*Catalog, error) {
	snap := filepath.Join(dir, fileName)
	c := &Catalog{log: logState{snapPath: snap, logPath: snap + logSuffix}}
	// A shared lock on the log keeps writers from appending or compacting
	// while the snapshot and the log are read. Without a log there is
	// nothing to pair the snapshot with: it alone is a complete state.
	l, err := durable.ReadLog(c.log.logPath)
	switch {
	case os.IsNotExist(err): // l is nil
	case err != nil:
		return nil, fmt.Errorf("catalog: %w", err)
	default:
		defer l.Close()
	}
	if err := c.load(l); err != nil {
		return nil, err
	}
	return c, nil
}

func sameSnapshot(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// load replaces the entries with the snapshot plus the ops in the log l
// (nil when there is none). On an error c is left as it was.
func (c *Catalog) load(l *durable.Log) error {
	fresh := &Catalog{log: logState{snapPath: c.log.snapPath, logPath: c.log.logPath}}
	fresh.reindex()
	sf, err := os.Open(fresh.log.snapPath)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("catalog: %w", err)
	default:
		raw, err := io.ReadAll(sf)
		if err == nil {
			fresh.log.snap, err = sf.Stat()
		}
		sf.Close()
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		var entries []Entry
		if err := json.Unmarshal(raw, &entries); err != nil {
			return fmt.Errorf("%w %s: %v", ErrCorrupt, fresh.log.snapPath, err)
		}
		for _, e := range entries {
			fresh.put(e)
		}
	}
	if l != nil {
		if err := fresh.replay(l); err != nil {
			return err
		}
	}
	c.entries, c.byIndex, c.byKey, c.log = fresh.entries, fresh.byIndex, fresh.byKey, fresh.log
	return nil
}

// replay applies the complete ops in the log l past the ones the entries
// already include.
func (c *Catalog) replay(l *durable.Log) error {
	err := l.Scan(c.log.size, func(line []byte) error {
		var op logOp
		err := json.Unmarshal(line, &op)
		if err == nil {
			err = c.apply(&op)
		}
		if err != nil {
			return fmt.Errorf("%w %s line %d: %v", ErrCorrupt, c.log.logPath, c.log.ops+1, err)
		}
		c.log.ops++
		return nil
	})
	c.log.size = l.End()
	return err
}

// apply performs one op on the in-memory entries.
func (c *Catalog) apply(op *logOp) error {
	switch op.Op {
	case opAdd:
		if op.Entry == nil {
			return errors.New("add op without an entry")
		}
		c.put(*op.Entry)
	case opRemove:
		if _, ok := c.byIndex[op.Index]; ok {
			c.drop(func(e *Entry) bool { return e.IndexPath == op.Index })
		}
	case opEvict:
		gone := make(map[string]bool, len(op.Indexes))
		for _, p := range op.Indexes {
			gone[p] = true
		}
		c.drop(func(e *Entry) bool { return gone[e.IndexPath] })
	case opQuarantine:
		if i, ok := c.byIndex[op.Index]; ok && c.entries[i].State != StateCorrupt {
			c.entries[i].State = StateCorrupt
			c.entries[i].StateReason = op.Reason
		}
	case opHits:
		if i, ok := c.byIndex[op.Index]; ok {
			c.entries[i].Hits = op.Hits
		}
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
	return nil
}

// mutate commits the op build returns, if any. build runs under the log
// lock on entries brought up to date with the log, so it decides on the
// state other writers left. The op is made durable in the log, then
// applied, then the log is compacted if it has outgrown the snapshot.
// Write-ahead order means a failed append leaves the in-memory catalog
// unchanged, and the log without the op.
func (c *Catalog) mutate(build func() *logOp) error {
	return c.withLog(func(l *durable.Log) error {
		op := build()
		if op == nil {
			return nil
		}
		line, err := json.Marshal(op)
		if err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		if err := l.Append(line); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		c.log.size = l.End()
		c.log.ops++
		if err := c.apply(op); err != nil {
			return err
		}
		if c.log.ops > 2*len(c.entries)+compactSlack {
			// The op is already durable; a failed compaction is retried
			// by the next mutation and is no reason to report this one
			// failed.
			c.compact(l)
		}
		return nil
	})
}

// withLog runs fn holding an exclusive lock on the log, which serializes
// writers across processes. First it brings the entries up to date: ops
// another process appended since are replayed, and if one compacted (the
// snapshot was replaced) everything is reloaded.
func (c *Catalog) withLog(fn func(l *durable.Log) error) error {
	l, err := durable.AppendLog(c.log.logPath)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer l.Close() // releases the lock
	snap, err := os.Stat(c.log.snapPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("catalog: %w", err)
	}
	size, err := l.Size()
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if !sameSnapshot(c.log.snap, snap) || size < c.log.size {
		err = c.load(l)
	} else {
		err = c.replay(l)
	}
	if err != nil {
		return err
	}
	return fn(l)
}

// compact writes the entries as a new snapshot and empties the log l,
// whose lock the caller holds.
func (c *Catalog) compact(l *durable.Log) error {
	raw, err := json.MarshalIndent(c.entries, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := durable.WriteFile(c.log.snapPath, raw); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	snap, err := os.Stat(c.log.snapPath)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	// The snapshot's rename is durable and it holds every logged op. A
	// crash before the truncate leaves both, which replays to the same
	// entries (see the op kinds).
	c.log.snap = snap
	if err := l.Reset(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	c.log.size, c.log.ops = 0, 0
	return nil
}
