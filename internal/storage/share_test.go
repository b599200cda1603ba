package storage

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// TestSharedScanTwoSubscribers drives the share registry directly: two
// concurrent subscribers over the same range must each see every row and
// record one shared scan apiece.
func TestSharedScanTwoSubscribers(t *testing.T) {
	schema := serde.MustSchema(
		serde.Field{Name: "a", Kind: serde.KindInt64},
		serde.Field{Name: "s", Kind: serde.KindString},
	)
	path := filepath.Join(t.TempDir(), "d.rec")
	w, err := NewWriter(path, schema, WriterOptions{BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := serde.NewRecord(schema)
	const rows = 100000
	for i := 0; i < rows; i++ {
		rec.MustSet("a", serde.Int(int64(i)))
		rec.MustSet("s", serde.String("padding-padding-padding-padding"))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r1, _ := Open(path)
	r2, _ := Open(path)
	defer r1.Close()
	defer r2.Close()
	n := r1.NumBlocks()
	t.Logf("blocks=%d size=%d", n, r1.Size())
	sh := NewScanShare()
	var wg sync.WaitGroup
	counts := make([]int64, 2)
	// Subscribe both before either drains: a solo subscriber could otherwise
	// race the whole scan to completion before the second arrives.
	subs := make([]*SharedScanner, 2)
	for i, r := range []*Reader{r1, r2} {
		m, ok := sh.Subscribe(r, 0, n, nil)
		if !ok {
			t.Fatalf("sub %d refused", i)
		}
		subs[i] = m
	}
	for i := range subs {
		wg.Add(1)
		go func(i int, m *SharedScanner) {
			defer wg.Done()
			for m.Next() {
				counts[i] += int64(len(m.Batch().Sel()))
			}
			if err := m.Err(); err != nil {
				t.Errorf("sub %d: %v", i, err)
			}
			m.Close()
		}(i, subs[i])
	}
	wg.Wait()
	t.Logf("counts=%v stats1=%+v stats2=%+v", counts, r1.ScanStats(), r2.ScanStats())
	if counts[0] != rows || counts[1] != rows {
		t.Errorf("row counts = %v, want %d each", counts, rows)
	}
	if r1.ScanStats().SharedScans+r2.ScanStats().SharedScans == 0 {
		t.Errorf("no shared scans recorded")
	}
}

// TestSharedScanLateJoinerKeepsRows is the regression test for a join
// race: a subscriber attaching while the producer reopened its scanner
// (union computed, scan not yet marked in flight) got no catch-up scan and
// no place in the union, so it silently lost every block the stale union
// zone-skipped. Two subscribers with different filters — one narrow, one
// keeping every row — start 0–200µs apart over many trials; each must
// yield exactly the rows of its own private ScanBatch.
func TestSharedScanLateJoinerKeepsRows(t *testing.T) {
	schema := serde.MustSchema(serde.Field{Name: "a", Kind: serde.KindInt64})
	path := filepath.Join(t.TempDir(), "join.rec")
	w, err := NewWriter(path, schema, WriterOptions{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	rec := serde.NewRecord(schema)
	const rows = 8000
	for i := 0; i < rows; i++ {
		rec.MustSet("a", serde.Int(int64(i)))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rangeFilter := func(lo int64) *Pushdown {
		iv := predicate.Interval{Lo: serde.Int(lo), LoInc: true}
		return &Pushdown{Filter: predicate.ZoneFilter{{predicate.FieldInterval{Field: "a", Iv: iv}}}, Residual: true}
	}
	pds := []*Pushdown{rangeFilter(rows - 50), rangeFilter(0)} // narrow, every row

	// collect drains a block iterator into the whole-file indexes of its
	// selected rows.
	collect := func(it blockIter) ([]int64, error) {
		var idx []int64
		for it.Next() {
			b := it.Batch()
			for _, row := range b.Sel() {
				idx = append(idx, b.Base()+int64(row))
			}
		}
		return idx, it.Err()
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.NumBlocks()
	want := make([][]int64, len(pds))
	for i, pd := range pds {
		sc, err := r.ScanBatch(0, n, pd)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = collect(sc); err != nil {
			t.Fatal(err)
		}
	}

	rnd := rand.New(rand.NewSource(1))
	deadline := time.Now().Add(1500 * time.Millisecond)
	trials, failures := 0, 0
	for ; trials < 5000 && time.Now().Before(deadline); trials++ {
		sh := NewScanShare()
		delay := time.Duration(rnd.Intn(200)) * time.Microsecond
		got := make([][]int64, len(pds))
		errs := make([]error, len(pds))
		var wg sync.WaitGroup
		for i, pd := range pds {
			wg.Add(1)
			go func(i int, pd *Pushdown) {
				defer wg.Done()
				if i == 1 {
					for start := time.Now(); time.Since(start) < delay; {
					}
				}
				rr, err := Open(path)
				if err != nil {
					errs[i] = err
					return
				}
				defer rr.Close()
				var it blockIter
				if m, ok := sh.Subscribe(rr, 0, n, pd); ok {
					it = m
				} else if it, err = rr.ScanBatch(0, n, pd); err != nil {
					errs[i] = err
					return
				}
				defer it.Close()
				got[i], errs[i] = collect(it)
			}(i, pd)
		}
		wg.Wait()
		for i := range pds {
			if errs[i] != nil {
				t.Fatalf("trial %d subscriber %d: %v", trials, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				failures++
				if failures <= 3 {
					t.Errorf("trial %d (delay %v) subscriber %d: %d rows, want %d", trials, delay, i, len(got[i]), len(want[i]))
				}
			}
		}
	}
	t.Logf("%d trials, %d wrong subscriber results", trials, failures)
	if failures > 0 {
		t.Fatalf("%d of %d trials lost or duplicated rows", failures, trials)
	}
}
