// Package catalog is Manimal's persistent index catalog (paper Figure 1):
// it records, for each input file, the index files that index-generation
// programs have produced, so the optimizer can choose an execution plan,
// and the committed job outputs the result cache serves.
//
// The catalog lives in its directory as a JSON snapshot
// (manimal-catalog.json, the "filesystem catalog" of the paper) plus an
// append-only log (manimal-catalog.json.log), both written through package
// durable. Every mutation appends one JSON op line to the log (a
// durable.Log: locked, fsynced before it returns), so a result-cache store
// or hit costs one small append however many entries the catalog holds.
// Once the log holds more than 2×entries+64 ops it is compacted: the
// snapshot is rewritten as an atomic file (durable.WriteFile) and the log
// emptied. Every op is idempotent against a snapshot that already contains
// it, so a crash between that rename and the truncate replays to the same
// entries.
//
// Open only reads: under a shared lock on the log it loads the snapshot and
// replays the log up to its last complete line, ignoring a torn tail.
// Read-only tools (`manimal catalog`, `manimal cache`) can therefore open a
// directory that a running `manimal serve` is writing. Writers in several
// processes (`serve` next to `cache -evict`, say) serialize on the log's
// exclusive lock: a mutation first replays the ops other processes
// appended, reloading everything if one of them compacted, and its append
// cuts a torn tail off first. An instance's reads see other processes'
// writes from its next mutation on.
package catalog

import (
	"os"
	"sort"
	"sync"
	"time"
)

// Index kinds.
const (
	KindBTree      = "btree"      // clustered B+Tree selection index (single file)
	KindRecordFile = "recordfile" // re-encoded record file (projection/compression)
	// KindBTreeSharded is a sharded B+Tree selection index: IndexPath is a
	// shard manifest (ordered shard files plus key boundaries) that package
	// btree opens as one logical tree.
	KindBTreeSharded = "btree-shards"
	// KindResultCache is a committed job output registered for reuse:
	// IndexPath is the cached KV artifact, CacheKey the identity under
	// which a re-submitted job is served from it without executing. The
	// key covers everything that determines a job's output — the hash of
	// each input program's canonicalized AST, each input file's
	// fingerprint (path, size, mtime), the job conf, output-shape knobs
	// (map-only, sorted output, reducer count), and the storage format
	// version — and nothing that doesn't (job name, output path,
	// parallelism, startup delay). A rewritten input changes the
	// fingerprint and thus the key, so stale entries are simply never hit
	// again (and show as STALE until evicted); a damaged artifact is
	// quarantined through the same CORRUPT path as index variants.
	KindResultCache = "result-cache"
)

// Entry describes one index built over an input file.
type Entry struct {
	// InputPath is the original data file the index derives from.
	InputPath string `json:"input"`
	// IndexPath is the index file (or shard manifest for KindBTreeSharded).
	IndexPath string `json:"index"`
	// Kind is KindBTree, KindBTreeSharded, or KindRecordFile.
	Kind string `json:"kind"`
	// KeyExpr is the canonical key expression (B+Tree kinds only).
	KeyExpr string `json:"keyExpr,omitempty"`
	// Shards is the shard count (KindBTreeSharded only).
	Shards int `json:"shards,omitempty"`
	// Fields are the stored field names (projection subset, or the full
	// schema when no projection was applied).
	Fields []string `json:"fields"`
	// Encodings maps field name -> "plain"|"delta"|"dict" for record files.
	Encodings map[string]string `json:"encodings,omitempty"`
	// SizeBytes is the index file size, for space-overhead reporting.
	SizeBytes int64 `json:"sizeBytes"`
	// BuildDuration records index construction cost.
	BuildDuration time.Duration `json:"buildNanos"`
	// CreatedAt is the build timestamp.
	CreatedAt time.Time `json:"createdAt"`
	// InputSizeBytes and InputModTimeNanos fingerprint the input file at
	// build time. The optimizer refuses entries whose fingerprint no longer
	// matches the input: a rewritten input would otherwise silently serve
	// results from the stale index. Zero values mean "not recorded".
	InputSizeBytes    int64 `json:"inputSizeBytes,omitempty"`
	InputModTimeNanos int64 `json:"inputModTimeNanos,omitempty"`
	// StatsVersion is the record-file format version the variant was
	// written with (storage.FormatVersion at build time; record files
	// only). Version >= 3 files carry per-block zone-map stats and support
	// block-skipping scans; 0 marks entries built before stats existed —
	// still scannable, never pruned.
	StatsVersion int `json:"statsVersion,omitempty"`
	// State marks unusable variants: "" (healthy) or StateCorrupt, set when
	// a scan hit a checksum/decode failure in the index file. The optimizer
	// never plans over a non-healthy entry; the file stays on disk for
	// inspection until the entry is Removed or rebuilt (Add replaces it,
	// clearing the state).
	State string `json:"state,omitempty"`
	// StateReason records why the state was set (e.g. the corrupt-block
	// error text), for `manimal catalog` display.
	StateReason string `json:"stateReason,omitempty"`
	// Result-cache fields (KindResultCache only): the cache key the entry
	// is served under, the fingerprints of every input at commit time
	// (multi-input jobs record all of them; InputSizeBytes/InputModTimeNanos
	// above carry the first for the shared staleness display), the number
	// of times a submission was served from this entry, and the cached
	// output's record count (replayed into the served job's counters).
	CacheKey      string       `json:"cacheKey,omitempty"`
	CacheInputs   []CacheInput `json:"cacheInputs,omitempty"`
	Hits          int64        `json:"hits,omitempty"`
	OutputRecords int64        `json:"outputRecords,omitempty"`
}

// CacheInput fingerprints one input file of a cached job result.
type CacheInput struct {
	Path         string `json:"path"`
	SizeBytes    int64  `json:"sizeBytes"`
	ModTimeNanos int64  `json:"modTimeNanos"`
}

// StateCorrupt marks an entry quarantined after a corruption detection.
const StateCorrupt = "CORRUPT"

// Usable reports whether the optimizer may plan over this entry.
func (e *Entry) Usable() bool { return e.State == "" }

// MatchesInput reports whether the entry's recorded input fingerprint
// still matches the given file stats; entries without a fingerprint match
// anything (older catalogs).
func (e *Entry) MatchesInput(sizeBytes, modTimeNanos int64) bool {
	if e.InputSizeBytes == 0 && e.InputModTimeNanos == 0 {
		return true
	}
	return e.InputSizeBytes == sizeBytes && e.InputModTimeNanos == modTimeNanos
}

// HasField reports whether the entry stores the named field.
func (e *Entry) HasField(name string) bool {
	for _, f := range e.Fields {
		if f == name {
			return true
		}
	}
	return false
}

// CoversFields reports whether the entry stores every named field.
func (e *Entry) CoversFields(names []string) bool {
	for _, n := range names {
		if !e.HasField(n) {
			return false
		}
	}
	return true
}

// Catalog is a concurrency-safe persistent entry store. Entries keep
// registration order; byIndex and byKey map an IndexPath and a result-cache
// key to the entry's position, so a cache lookup, store or hit does not
// scan the catalog.
type Catalog struct {
	mu      sync.Mutex
	entries []Entry
	byIndex map[string]int
	byKey   map[string]int
	log     logState
}

// Add registers an entry and persists it. A prior entry with the same
// IndexPath is replaced.
func (c *Catalog) Add(e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutate(func() *logOp { return &logOp{Op: opAdd, Entry: &e} })
}

// Remove drops the entry with the given index path, if present.
func (c *Catalog) Remove(indexPath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutate(func() *logOp {
		if _, ok := c.byIndex[indexPath]; !ok {
			return nil
		}
		return &logOp{Op: opRemove, Index: indexPath}
	})
}

// Quarantine marks the entry with the given index path as CORRUPT (with a
// reason) and persists it, so no later planning round selects the damaged
// variant. Quarantining an unknown or already quarantined path is a no-op.
// The index file itself is left on disk for inspection.
func (c *Catalog) Quarantine(indexPath, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutate(func() *logOp {
		if i, ok := c.byIndex[indexPath]; !ok || c.entries[i].State == StateCorrupt {
			return nil
		}
		return &logOp{Op: opQuarantine, Index: indexPath, Reason: reason}
	})
}

// ForInput returns the index variants built over the given input file,
// most recent first. Result-cache entries are not index variants and are
// never returned: the optimizer cannot plan over them.
func (c *Catalog) ForInput(inputPath string) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Entry
	for _, e := range c.entries {
		if e.InputPath == inputPath && e.Kind != KindResultCache {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.After(out[j].CreatedAt) })
	return out
}

// All returns every entry.
func (c *Catalog) All() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Entry(nil), c.entries...)
}

// CacheFresh reports whether every input fingerprint recorded on a
// result-cache entry still matches the file on disk. A false result means
// the entry can never be hit again (the key embeds the fingerprints) and
// only awaits eviction.
func (e *Entry) CacheFresh() bool {
	for _, in := range e.CacheInputs {
		st, err := os.Stat(in.Path)
		if err != nil || st.Size() != in.SizeBytes || st.ModTime().UnixNano() != in.ModTimeNanos {
			return false
		}
	}
	return true
}

// FindCache returns the result-cache entry registered last under key, if
// it is usable.
func (c *Catalog) FindCache(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byKey[key]
	if !ok || !c.entries[i].Usable() {
		return Entry{}, false
	}
	return c.entries[i], true
}

// TouchCache increments the hit count of the entry registered under key
// and persists it.
func (c *Catalog) TouchCache(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutate(func() *logOp {
		i, ok := c.byKey[key]
		if !ok {
			return nil
		}
		e := &c.entries[i]
		return &logOp{Op: opHits, Index: e.IndexPath, Hits: e.Hits + 1}
	})
}

// EvictCache removes result-cache entries — all of them, or with staleOnly
// just those whose input fingerprints no longer match (plus quarantined
// ones) — and returns the removed entries so the caller can delete their
// artifact files. On a persistence error nothing is removed.
func (c *Catalog) EvictCache(staleOnly bool) ([]Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var evicted []Entry
	err := c.mutate(func() *logOp {
		var paths []string
		for _, e := range c.entries {
			if e.Kind == KindResultCache && (!staleOnly || !e.Usable() || !e.CacheFresh()) {
				evicted = append(evicted, e)
				paths = append(paths, e.IndexPath)
			}
		}
		if len(paths) == 0 {
			return nil
		}
		return &logOp{Op: opEvict, Indexes: paths}
	})
	if err != nil {
		return nil, err
	}
	return evicted, nil
}

// put appends e, replacing any entry with the same IndexPath. A new path
// costs O(1); a replacement re-indexes.
func (c *Catalog) put(e Entry) {
	if _, ok := c.byIndex[e.IndexPath]; ok {
		c.drop(func(old *Entry) bool { return old.IndexPath == e.IndexPath })
	}
	c.index(e, len(c.entries))
	c.entries = append(c.entries, e)
}

// drop removes every entry gone reports and rebuilds the position maps.
func (c *Catalog) drop(gone func(*Entry) bool) {
	kept := c.entries[:0]
	for i := range c.entries {
		if !gone(&c.entries[i]) {
			kept = append(kept, c.entries[i])
		}
	}
	clear(c.entries[len(kept):])
	c.entries = kept
	c.reindex()
}

func (c *Catalog) reindex() {
	c.byIndex = make(map[string]int, len(c.entries))
	c.byKey = make(map[string]int)
	for i, e := range c.entries {
		c.index(e, i)
	}
}

func (c *Catalog) index(e Entry, pos int) {
	c.byIndex[e.IndexPath] = pos
	if e.Kind == KindResultCache {
		c.byKey[e.CacheKey] = pos
	}
}
