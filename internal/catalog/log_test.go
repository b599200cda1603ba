package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"manimal/internal/durable"
)

// cacheEntry builds a result-cache entry shaped like the ones a System
// registers: a 64-hex-digit key, its artifact under the cache directory,
// and one input fingerprint.
func cacheEntry(dir string, i int) Entry {
	key := fmt.Sprintf("%064x", i)
	return Entry{
		InputPath: "/data/uservisits.rec", IndexPath: filepath.Join(dir, "cache", key+".kv"),
		Kind: KindResultCache, SizeBytes: int64(1000 + i), BuildDuration: time.Millisecond,
		CreatedAt: time.Unix(1700000000, int64(i)).UTC(), CacheKey: key,
		CacheInputs:    []CacheInput{{Path: "/data/uservisits.rec", SizeBytes: 1 << 20, ModTimeNanos: 1700000000}},
		InputSizeBytes: 1 << 20, InputModTimeNanos: 1700000000, OutputRecords: int64(i),
	}
}

func mustOpen(t testing.TB, dir string) *Catalog {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func readBoth(t *testing.T, dir string) (snap, log []byte) {
	t.Helper()
	snap, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	log, err = os.ReadFile(filepath.Join(dir, fileName+logSuffix))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return snap, log
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestOpenEmptyWritesNothing: opening a directory that holds no catalog —
// or does not exist — yields an empty catalog and creates nothing.
func TestOpenEmptyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	if n := len(c.All()); n != 0 {
		t.Fatalf("entries = %d, want 0", n)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Errorf("Open created %v", names)
	}
	missing := filepath.Join(dir, "missing")
	mustOpen(t, missing)
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("Open created the missing directory (stat err %v)", err)
	}
}

// TestTornTailIgnored: a crash mid-append leaves a last line without its
// newline. Open ignores it and leaves both files byte-identical; the first
// mutation cuts it off, so the op it appends is readable after it.
func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	for i := 0; i < 3; i++ {
		if err := c.Add(cacheEntry(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.withLog(c.compact); err != nil {
		t.Fatal(err)
	}
	c.Add(cacheEntry(dir, 3))
	c.TouchCache(cacheEntry(dir, 1).CacheKey)
	want := c.All()
	logPath := filepath.Join(dir, fileName+logSuffix)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"add","entry":{"input":"/data/u`)
	f.Close()
	snap, log := readBoth(t, dir)
	names := dirNames(t, dir)

	r := mustOpen(t, dir)
	if got := r.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after torn tail:\n got %+v\nwant %+v", got, want)
	}
	snap2, log2 := readBoth(t, dir)
	if !bytes.Equal(snap, snap2) || !bytes.Equal(log, log2) {
		t.Error("a read-only Open changed the snapshot or the log")
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, names) {
		t.Errorf("a read-only Open changed the directory: %v -> %v", names, got)
	}

	if err := r.Add(cacheEntry(dir, 4)); err != nil {
		t.Fatal(err)
	}
	again := mustOpen(t, dir)
	if got, want := again.All(), r.All(); !reflect.DeepEqual(got, want) || len(got) != 5 {
		t.Fatalf("after the first mutation: %d entries, want 5 matching memory", len(got))
	}
}

// TestCrashBetweenRenameAndTruncate: a compaction renames the new snapshot
// in and then truncates the log. A crash between the two leaves the new
// snapshot next to the full log; replaying it must give the same entries
// and must not count any hit twice.
func TestCrashBetweenRenameAndTruncate(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	for i := 0; i < 6; i++ {
		if err := c.Add(cacheEntry(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		c.TouchCache(cacheEntry(dir, 2).CacheKey)
	}
	c.Quarantine(cacheEntry(dir, 3).IndexPath, "crc mismatch")
	c.Remove(cacheEntry(dir, 4).IndexPath)
	c.Add(cacheEntry(dir, 4)) // re-added: moves to the end
	want := c.All()
	_, log := readBoth(t, dir)

	if err := c.withLog(c.compact); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, fileName+logSuffix)
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir)
	if got := r.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay over the compacted snapshot:\n got %+v\nwant %+v", got, want)
	}
	e, ok := r.FindCache(cacheEntry(dir, 2).CacheKey)
	if !ok || e.Hits != 5 {
		t.Errorf("hits after replay = %d (found %v), want 5", e.Hits, ok)
	}
	// The replayed catalog keeps working: its next hit counts from 5.
	if err := r.TouchCache(cacheEntry(dir, 2).CacheKey); err != nil {
		t.Fatal(err)
	}
	if e, _ := mustOpen(t, dir).FindCache(cacheEntry(dir, 2).CacheKey); e.Hits != 6 {
		t.Errorf("hits after one more touch = %d, want 6", e.Hits)
	}
}

// TestCorruptLineIsTypedError: a complete log line that does not decode is
// corruption, not a torn tail — Open reports it as ErrCorrupt instead of
// dropping it and the ops after it. A corrupt snapshot is reported the
// same way.
func TestCorruptLineIsTypedError(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json",
		"unknown op":   `{"op":"rename","index":"x"}`,
		"add no entry": `{"op":"add"}`,
		"empty line":   "",
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mustOpen(t, dir).Add(cacheEntry(dir, 0))
			logPath := filepath.Join(dir, fileName+logSuffix)
			good := mustRead(t, logPath)
			// The bad line sits between two complete, valid ones.
			log := append(append(append([]byte{}, good...), bad+"\n"...), good...)
			if err := os.WriteFile(logPath, log, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open over a corrupt line 2 of 3: err = %v, want ErrCorrupt", err)
			}
		})
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fileName), []byte(`[{"input":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a torn snapshot: err = %v, want ErrCorrupt", err)
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMutationAppendsWithoutRewritingSnapshot: at 500 entries, between
// compactions, a result-cache store or hit appends one small line to the
// log and leaves the snapshot file alone (same inode, same mtime).
func TestMutationAppendsWithoutRewritingSnapshot(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	for i := 0; i < 500; i++ {
		if err := c.Add(cacheEntry(dir, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.withLog(c.compact); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, fileName)
	logPath := snapPath + logSuffix
	snap0, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	logSize := func() int64 {
		st, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	mutations := map[string]func() error{
		"add":   func() error { return c.Add(cacheEntry(dir, 500)) },
		"touch": func() error { return c.TouchCache(cacheEntry(dir, 250).CacheKey) },
	}
	for _, name := range []string{"add", "touch"} {
		before := logSize()
		if err := mutations[name](); err != nil {
			t.Fatal(err)
		}
		if grew := logSize() - before; grew <= 0 || grew >= 4096 {
			t.Errorf("%s appended %d bytes, want 0 < n < 4096", name, grew)
		}
		snap, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(snap0, snap) || !snap.ModTime().Equal(snap0.ModTime()) || snap.Size() != snap0.Size() {
			t.Errorf("%s rewrote the snapshot", name)
		}
	}
}

// TestCompactionBoundsLog: however many hits land, the log never holds
// more than 2×entries+64 ops, and the state survives each compaction.
func TestCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	const n = 20
	for i := 0; i < n; i++ {
		c.Add(cacheEntry(dir, i))
	}
	compactions := 0
	for i := 0; i < 1000; i++ {
		before := c.log.ops
		if err := c.TouchCache(cacheEntry(dir, i%n).CacheKey); err != nil {
			t.Fatal(err)
		}
		if c.log.ops < before {
			compactions++
		}
		if c.log.ops > 2*n+compactSlack {
			t.Fatalf("log holds %d ops at %d entries", c.log.ops, n)
		}
	}
	if compactions == 0 {
		t.Fatal("1000 hits never compacted")
	}
	r := mustOpen(t, dir)
	if got, want := r.All(), c.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened catalog differs from memory after %d compactions", compactions)
	}
	if e, _ := r.FindCache(cacheEntry(dir, 7).CacheKey); e.Hits != 1000/n {
		t.Errorf("hits = %d, want %d", e.Hits, 1000/n)
	}
}

// TestReplayMatchesMemory: after any sequence of mutations, with
// compactions falling wherever the threshold puts them, a reopened catalog
// holds exactly the entries, in the same order, as the one that wrote it.
func TestReplayMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	c := mustOpen(t, dir)
	idx := func(i int) Entry {
		return Entry{InputPath: "in.rec", IndexPath: fmt.Sprintf("in.idx%d", i), Kind: KindBTree,
			Fields: []string{"a"}, CreatedAt: time.Unix(int64(i), 0).UTC()}
	}
	for step := 0; step < 600; step++ {
		i := rng.Intn(12)
		var err error
		switch rng.Intn(7) {
		case 0:
			err = c.Add(cacheEntry(dir, i))
		case 1:
			err = c.Add(idx(i))
		case 2:
			err = c.Remove(cacheEntry(dir, i).IndexPath)
		case 3:
			err = c.Quarantine(idx(i).IndexPath, fmt.Sprint("step ", step))
		case 4, 5:
			err = c.TouchCache(cacheEntry(dir, i).CacheKey)
		case 6:
			if rng.Intn(8) == 0 {
				_, err = c.EvictCache(false)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if step%50 == 0 {
			if got, want := mustOpen(t, dir).All(), c.All(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: reopened catalog differs from memory", step)
			}
		}
	}
	if got, want := mustOpen(t, dir).All(), c.All(); !reflect.DeepEqual(got, want) {
		t.Fatal("final reopened catalog differs from memory")
	}
}

// TestConcurrentMutations: goroutines storing, hitting and looking up
// result-cache entries at once, across compactions, leave a log that
// replays to the in-memory catalog with every hit counted once.
func TestConcurrentMutations(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	const workers, perWorker = 4, 60
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWorker; i++ {
				e := cacheEntry(dir, w*perWorker+i)
				if err := c.Add(e); err != nil {
					t.Error(err)
					return
				}
				for _, k := range []string{e.CacheKey, cacheEntry(dir, w*perWorker).CacheKey} {
					if err := c.TouchCache(k); err != nil {
						t.Error(err)
						return
					}
					c.FindCache(k)
				}
				c.ForInput(e.InputPath)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	got := mustOpen(t, dir).All()
	if want := c.All(); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened catalog differs from memory")
	}
	var hits int64
	for _, e := range got {
		hits += e.Hits
	}
	if want := int64(2 * workers * perWorker); hits != want {
		t.Errorf("total hits = %d, want %d", hits, want)
	}
}

// TestTwoWritersShareLog: two Catalogs on one directory stand for two
// processes (`serve` and `cache -evict`, say). Whatever one appended or
// compacted after the other opened, the other's next mutation builds on
// it: no op either was told succeeded is lost, and the files reopen.
func TestTwoWritersShareLog(t *testing.T) {
	cases := map[string]func(t *testing.T, dir string, b *Catalog){
		// b's ops land past the offset a recorded when it opened.
		"append": func(t *testing.T, dir string, b *Catalog) {
			for i := 10; i < 14; i++ {
				if err := b.Add(cacheEntry(dir, i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		// b compacts, then appends more than a's offset, so a cut at that
		// offset would land mid-line.
		"compact then append": func(t *testing.T, dir string, b *Catalog) {
			if err := b.withLog(b.compact); err != nil {
				t.Fatal(err)
			}
			for i := 10; i < 30; i++ {
				if err := b.Add(cacheEntry(dir, i)); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, other := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a := mustOpen(t, dir)
			for i := 0; i < 3; i++ {
				if err := a.Add(cacheEntry(dir, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.withLog(a.compact); err != nil {
				t.Fatal(err)
			}
			a.TouchCache(cacheEntry(dir, 1).CacheKey)
			b := mustOpen(t, dir)
			a = mustOpen(t, dir) // a fresh offset, as a newly started process has
			b.TouchCache(cacheEntry(dir, 1).CacheKey)
			other(t, dir, b)
			want := b.All()

			// a evicts the entries b registered and hits one of them.
			if err := a.TouchCache(cacheEntry(dir, 1).CacheKey); err != nil {
				t.Fatal(err)
			}
			if err := a.Remove(cacheEntry(dir, 0).IndexPath); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after two writers: %v", err)
			}
			got := r.All()
			if !reflect.DeepEqual(got, a.All()) {
				t.Fatal("reopened catalog differs from the last writer's memory")
			}
			if len(got) != len(want)-1 {
				t.Fatalf("%d entries, want b's %d less the one a removed", len(got), len(want))
			}
			if e, _ := r.FindCache(cacheEntry(dir, 1).CacheKey); e.Hits != 3 {
				t.Errorf("hits = %d, want 3 (one from a, one from b, then one from a)", e.Hits)
			}
			if _, ok := r.FindCache(cacheEntry(dir, 12).CacheKey); !ok {
				t.Error("an entry b added is gone")
			}
		})
	}
}

// TestConcurrentWriters: several Catalogs on one directory, each with its
// own lock on the log, store and hit entries at once across compactions.
// The result replays to every store and every hit.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers, perWriter = 3, 40
	shared := cacheEntry(dir, 1000)
	if err := mustOpen(t, dir).Add(shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		c := mustOpen(t, dir)
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWriter; i++ {
				if err := c.Add(cacheEntry(dir, w*perWriter+i)); err != nil {
					t.Error(err)
					return
				}
				if err := c.TouchCache(shared.CacheKey); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	r := mustOpen(t, dir)
	if n := len(r.All()); n != writers*perWriter+1 {
		t.Errorf("entries = %d, want %d", n, writers*perWriter+1)
	}
	if e, _ := r.FindCache(shared.CacheKey); e.Hits != writers*perWriter {
		t.Errorf("hits = %d, want %d", e.Hits, writers*perWriter)
	}
}

// TestOpenWaitsForWriter: Open reads under a shared lock, so it cannot see
// a writer's half-done compaction (a new snapshot beside the old log).
func TestOpenWaitsForWriter(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	if err := c.Add(cacheEntry(dir, 0)); err != nil {
		t.Fatal(err)
	}
	opened := make(chan error, 1)
	c.withLog(func(*durable.Log) error {
		go func() {
			_, err := Open(dir)
			opened <- err
		}()
		select {
		case err := <-opened:
			t.Errorf("Open returned (err %v) while a writer held the log", err)
			opened <- nil
		case <-time.After(50 * time.Millisecond):
		}
		return nil
	})
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
}

// TestForInputExcludesResultCache: ForInput lists index variants only; the
// result cache is reached through FindCache.
func TestForInputExcludesResultCache(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	ce := cacheEntry(dir, 1)
	c.Add(ce)
	c.Add(Entry{InputPath: ce.InputPath, IndexPath: "uv.idx0", Kind: KindRecordFile})
	got := c.ForInput(ce.InputPath)
	if len(got) != 1 || got[0].IndexPath != "uv.idx0" {
		t.Fatalf("ForInput = %+v, want only the record-file variant", got)
	}
	if e, ok := c.FindCache(ce.CacheKey); !ok || e.IndexPath != ce.IndexPath {
		t.Fatalf("FindCache = %+v, %v", e, ok)
	}
	c.Quarantine(ce.IndexPath, "size mismatch")
	if _, ok := c.FindCache(ce.CacheKey); ok {
		t.Error("FindCache served a quarantined entry")
	}
}

// FuzzCatalogOpen feeds arbitrary snapshot and log bytes to Open. It must
// return entries or an error and never panic, and as a read-only Open it
// must leave both files byte-identical. Mutations are left to the unit
// tests above: each one fsyncs, which would slow the fuzzer's input
// minimization by orders of magnitude.
func FuzzCatalogOpen(f *testing.F) {
	// Short paths and keys keep the seeds small: the fuzzer minimizes
	// every new input, and each run of this target touches the disk.
	dir := f.TempDir()
	c := mustOpen(f, dir)
	c.Add(Entry{InputPath: "a", IndexPath: "a.i", Kind: KindBTree, KeyExpr: "k"})
	c.Add(Entry{InputPath: "a", IndexPath: "c1", Kind: KindResultCache, CacheKey: "k1"})
	c.withLog(c.compact)
	c.Add(Entry{InputPath: "a", IndexPath: "c2", Kind: KindResultCache, CacheKey: "k2"})
	c.TouchCache("k1")
	c.Quarantine("a.i", "crc")
	c.Remove("c1")
	c.EvictCache(false)
	snap := mustRead(f, filepath.Join(dir, fileName))
	log := mustRead(f, filepath.Join(dir, fileName+logSuffix))
	f.Add(snap, log)
	f.Add(snap, log[:len(log)-7])
	f.Add([]byte(nil), log)
	f.Add([]byte("null"), []byte(`{"op":"hits","index":"x","hits":3}`+"\n"))
	f.Add([]byte("[]"), []byte("\n\n"))

	fuzzDir := f.TempDir()
	f.Fuzz(func(t *testing.T, snap, log []byte) {
		snapPath := filepath.Join(fuzzDir, fileName)
		logPath := snapPath + logSuffix
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(fuzzDir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		if !bytes.Equal(mustRead(t, snapPath), snap) || !bytes.Equal(mustRead(t, logPath), log) {
			t.Fatal("a read-only Open changed the files")
		}
		for _, e := range c.All() {
			if i, ok := c.byIndex[e.IndexPath]; !ok || c.entries[i].IndexPath != e.IndexPath {
				t.Fatalf("entry %q is not indexed at its position", e.IndexPath)
			}
		}
	})
}
