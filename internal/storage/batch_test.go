package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manimal/internal/compress"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// rowScanCollect runs a pushdown scan through the per-row Scanner view on
// an already-open reader, returning cloned surviving records, their
// whole-file indexes, and the reader's counters afterwards.
func rowScanCollect(t *testing.T, r *Reader, pd *Pushdown) ([]*serde.Record, []int64, ScanStats) {
	t.Helper()
	sc, err := r.ScanPushdown(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*serde.Record
	var idx []int64
	for sc.Next() {
		recs = append(recs, sc.Record().Clone())
		idx = append(idx, sc.RecordIndex())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return recs, idx, r.ScanStats()
}

// batchScanCollect runs a batch scan on an already-open reader,
// materializing every selected row through one reused record (late
// materialization, as the engine does), and returns the same triple as
// rowScanCollect.
func batchScanCollect(t *testing.T, r *Reader, pd *Pushdown) ([]*serde.Record, []int64, ScanStats) {
	t.Helper()
	sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	rec := serde.NewRecord(r.Schema())
	var recs []*serde.Record
	var idx []int64
	for sc.Next() {
		b := sc.Batch()
		for _, row := range b.Sel() {
			b.MaterializeInto(rec, int(row))
			recs = append(recs, rec.Clone())
			idx = append(idx, b.Base()+int64(row))
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return recs, idx, r.ScanStats()
}

// expectedScan is the oracle a pushdown scan of the file holding recs must
// reproduce, computed from the writer's input without decoding a block:
// the rows of every block the zone maps cannot rule out, minus the rows
// the residual rejects (oracleFilter's predicate, evaluated in plain Go),
// with every masked field zeroed and whole-file indices; and the counters
// such a scan reports.
func expectedScan(recs []*serde.Record, r *Reader, pd *Pushdown) ([]*serde.Record, []int64, ScanStats) {
	skip := make([]bool, r.NumBlocks())
	if pd != nil && pd.Filter != nil {
		skip, _ = r.SkippableBlocks(pd.Filter)
	}
	var keep map[string]bool
	if pd != nil && pd.Fields != nil {
		keep = make(map[string]bool)
		for _, f := range pd.Fields {
			keep[f] = true
		}
		if pd.Residual {
			for _, c := range pd.Filter {
				for _, fi := range c {
					keep[fi.Field] = true
				}
			}
		}
	}
	var want []*serde.Record
	var idx []int64
	var st ScanStats
	for b := range skip {
		if skip[b] {
			st.BlocksSkipped++
			continue
		}
		st.BlocksRead++
		lo := r.RecordsInBlocks(0, b)
		for i := lo; i < lo+r.RecordsInBlocks(b, b+1); i++ {
			rec := recs[i]
			if pd != nil && pd.Residual && len(oracleFilter([]*serde.Record{rec}, pd.Filter)) == 0 {
				st.RowsFiltered++
				continue
			}
			if keep != nil {
				rec = rec.Clone()
				for f := 0; f < rec.Schema().NumFields(); f++ {
					if fd := rec.Schema().Field(f); !keep[fd.Name] {
						*rec.Slot(f) = serde.ZeroOf(fd.Kind)
					}
				}
			}
			want = append(want, rec)
			idx = append(idx, i)
		}
	}
	return want, idx, st
}

// requireScan checks one scan's records, indexes and counters against
// expectedScan's.
func requireScan(t *testing.T, recs []*serde.Record, r *Reader, pd *Pushdown, got []*serde.Record, gotIdx []int64, gotStats ScanStats) {
	t.Helper()
	want, wantIdx, wantStats := expectedScan(recs, r, pd)
	requireEqual(t, want, got)
	if !reflect.DeepEqual(wantIdx, gotIdx) {
		t.Fatalf("record indexes diverge from the writer's positions (%d vs %d indexes)", len(gotIdx), len(wantIdx))
	}
	if gotStats != wantStats {
		t.Fatalf("counters %+v, want %+v", gotStats, wantStats)
	}
}

// TestBatchRowScanDifferential is the decoder's pushdown gate: across
// every encoding combination and pushdown shape, the batch scan and the
// per-row Scanner view over it each yield exactly the writer's records
// (filtered, masked and indexed per expectedScan) and the expected pruning
// counters.
func TestBatchRowScanDifferential(t *testing.T) {
	recs := makeRecords(4000, 31)
	encodings := map[string]WriterOptions{
		"plain": {BlockSize: 2 << 10},
		"delta": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{
			"ts": EncodeDelta, "score": EncodeDelta}},
		"dict": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{"url": EncodeDict}},
		"mixed": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{
			"ts": EncodeDelta, "url": EncodeDict}},
	}
	minTS := recs[0].Get("ts").I
	maxTS := recs[len(recs)-1].Get("ts").I // ts is non-decreasing
	midFilter := tsFilter(serde.Int((minTS+maxTS)/2), serde.Int((minTS+maxTS)/2+(maxTS-minTS)/20))
	pushdowns := map[string]*Pushdown{
		"nil":      nil,
		"filter":   {Filter: midFilter},
		"residual": {Filter: midFilter, Residual: true},
		"fields":   {Fields: []string{"ts"}},
		"combined": {Filter: midFilter, Residual: true, Fields: []string{"url"}},
	}
	for encName, opts := range encodings {
		path := filepath.Join(t.TempDir(), encName+".rec")
		writeFile(t, path, recs, opts)
		for pdName, pd := range pushdowns {
			t.Run(encName+"/"+pdName, func(t *testing.T) {
				for view, collect := range map[string]func(*testing.T, *Reader, *Pushdown) ([]*serde.Record, []int64, ScanStats){
					"batch": batchScanCollect,
					"rows":  rowScanCollect,
				} {
					r, err := Open(path)
					if err != nil {
						t.Fatal(err)
					}
					got, gotIdx, st := collect(t, r, pd)
					t.Run(view, func(t *testing.T) { requireScan(t, recs, r, pd, got, gotIdx, st) })
					r.Close()
				}
			})
		}
	}
}

// TestBatchScanSkipsBoundaryStraddlingBlocks: a range whose endpoints land
// mid-block must skip the blocks wholly outside it, read every straddling
// block, and still match the oracle row for row, counters included.
func TestBatchScanSkipsBoundaryStraddlingBlocks(t *testing.T) {
	recs := makeRecords(4000, 32)
	path := filepath.Join(t.TempDir(), "straddle.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	minTS := recs[0].Get("ts").I
	maxTS := recs[len(recs)-1].Get("ts").I
	// Endpoints offset by +7 from the file minimum so they straddle block
	// boundaries rather than aligning with them.
	filter := tsFilter(serde.Int(minTS+7), serde.Int(minTS+7+(maxTS-minTS)/3))
	pd := &Pushdown{Filter: filter, Residual: true}

	br, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	got, gotIdx, st := batchScanCollect(t, br, pd)
	requireEqual(t, oracleFilter(recs, filter), got)
	requireScan(t, recs, br, pd, got, gotIdx, st)
	if st.BlocksSkipped == 0 {
		t.Fatalf("1/3-selectivity range skipped no blocks: %+v", st)
	}
	if st.BlocksRead+st.BlocksSkipped != int64(br.NumBlocks()) {
		t.Fatalf("block accounting off: %+v over %d blocks", st, br.NumBlocks())
	}
	if st.RowsFiltered == 0 {
		t.Fatal("straddling blocks should have residual-dropped rows")
	}
}

// TestBatchScanDirectCodes: under DirectCodes dict fields decode to the
// injective code strings of their first-seen order, and the residual
// filter ignores dict-field bounds (blocks still skip on the stats of the
// original values), on the batch and row views alike.
func TestBatchScanDirectCodes(t *testing.T) {
	schema := serde.MustSchema(
		serde.Field{Name: "s", Kind: serde.KindString},
		serde.Field{Name: "n", Kind: serde.KindInt64},
	)
	var recs []*serde.Record
	for c := byte('a'); c <= 'z'; c++ {
		r := serde.NewRecord(schema)
		r.MustSet("s", serde.String(strings.Repeat(string(c), 2)))
		r.MustSet("n", serde.Int(int64(c)))
		recs = append(recs, r)
	}
	path := filepath.Join(t.TempDir(), "dc.rec")
	w, err := NewWriter(path, schema, WriterOptions{
		BlockSize: 8, Encodings: map[string]FieldEncoding{"s": EncodeDict}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	filter := predicate.ZoneFilter{{predicate.FieldInterval{Field: "s",
		Iv: predicate.PointInterval(serde.String("mm"))}}}
	pd := &Pushdown{Filter: filter, Residual: true}
	for view, collect := range map[string]func(*testing.T, *Reader, *Pushdown) ([]*serde.Record, []int64, ScanStats){
		"batch": batchScanCollect,
		"rows":  rowScanCollect,
	} {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r.DirectCodes = true
		got, _, st := collect(t, r, pd)
		// Every row of every block the stats keep survives, its dict field
		// rendered as the code the writer assigned (first-seen order).
		skip, skipped := r.SkippableBlocks(filter)
		var want []*serde.Record
		for b := range skip {
			lo := r.RecordsInBlocks(0, b)
			for i := lo; i < lo+r.RecordsInBlocks(b, b+1) && !skip[b]; i++ {
				w := recs[i].Clone()
				w.MustSet("s", serde.String(compress.CodeString(uint64(i))))
				want = append(want, w)
			}
		}
		r.Close()
		if len(want) == 0 || skipped == 0 {
			t.Fatalf("filter kept %d rows and skipped %d blocks; want some of each", len(want), skipped)
		}
		requireEqual(t, want, got)
		if st.RowsFiltered != 0 || st.BlocksSkipped != int64(skipped) {
			t.Fatalf("%s: counters %+v, want %d skipped and no rows filtered on code strings", view, st, skipped)
		}
	}
}

// writeLegacyV3File writes a record file in the ROW-INTERLEAVED stats
// format (version 3), replicating the pre-columnar Writer byte for byte:
// plain encodings, per-block zone-map stats, MANIMAL3 footer, payloads
// with fields interleaved row by row and no segment-length table. It
// exists so compatibility with files written before the columnar layout
// is pinned by construction.
func writeLegacyV3File(t *testing.T, path string, schema *serde.Schema, recs []*serde.Record, blockSize int) {
	t.Helper()
	var out []byte
	var hdr []byte
	hdr = schema.AppendBinary(hdr)
	for i := 0; i < schema.NumFields(); i++ {
		hdr = append(hdr, byte(EncodePlain))
	}
	out = append(out, magicHeader...)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)

	type blk struct{ offset, length, records int64 }
	var blocks []blk
	var stats []byte
	curStats := make([]FieldStats, schema.NumFields())
	var buf []byte
	var blockRecs int64
	flush := func() {
		if blockRecs == 0 {
			return
		}
		var bh []byte
		bh = binary.AppendUvarint(bh, uint64(len(buf)))
		bh = binary.AppendUvarint(bh, uint64(blockRecs))
		blocks = append(blocks, blk{offset: int64(len(out)), length: int64(len(bh) + len(buf)), records: blockRecs})
		out = append(out, bh...)
		out = append(out, buf...)
		stats = appendBlockStats(stats, curStats)
		for i := range curStats {
			curStats[i].reset()
		}
		buf = buf[:0]
		blockRecs = 0
	}
	for _, r := range recs {
		for i := 0; i < schema.NumFields(); i++ {
			curStats[i].update(r.At(i))
			buf = r.At(i).AppendValue(buf)
		}
		blockRecs++
		if len(buf) >= blockSize {
			flush()
		}
	}
	flush()

	var ftr []byte
	ftr = binary.AppendUvarint(ftr, uint64(len(blocks)))
	for _, b := range blocks {
		ftr = binary.AppendUvarint(ftr, uint64(b.offset))
		ftr = binary.AppendUvarint(ftr, uint64(b.length))
		ftr = binary.AppendUvarint(ftr, uint64(b.records))
	}
	ftr = append(ftr, stats...)
	ftr = binary.LittleEndian.AppendUint64(ftr, uint64(len(ftr)))
	ftr = append(ftr, magicFooterV3...)
	out = append(out, ftr...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRowInterleavedV3Compat pins backward compatibility with the
// row-interleaved stats format: a v3 file opens with stats, and ScanBatch
// (through the row-interleaved adapter) and the Scanner view over it
// reproduce the writer's records for plain, pruned and field-masked
// scans — stats drive block skipping as on columnar files.
func TestRowInterleavedV3Compat(t *testing.T) {
	recs := makeRecords(2000, 33)
	path := filepath.Join(t.TempDir(), "legacy-v3.rec")
	writeLegacyV3File(t, path, testSchema, recs, 2<<10)

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.HasStats() || r.FormatVersion() != 3 {
		t.Fatalf("v3 file: HasStats=%v version=%d", r.HasStats(), r.FormatVersion())
	}
	requireEqual(t, recs, readBack(t, path))

	minTS := recs[0].Get("ts").I
	maxTS := recs[len(recs)-1].Get("ts").I
	filter := tsFilter(serde.Int((minTS+maxTS)/2), serde.Int((minTS+maxTS)/2+50))
	for name, pd := range map[string]*Pushdown{
		"nil":      nil,
		"residual": {Filter: filter, Residual: true},
		"fields":   {Fields: []string{"score"}},
		"combined": {Filter: filter, Residual: true, Fields: []string{"url"}},
	} {
		t.Run(name, func(t *testing.T) {
			br, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer br.Close()
			got, gotIdx, st := batchScanCollect(t, br, pd)
			requireScan(t, recs, br, pd, got, gotIdx, st)
			if len(got) == 0 {
				t.Fatal("scan yielded no rows")
			}
			if pd != nil && pd.Filter != nil && st.BlocksSkipped == 0 {
				t.Fatalf("v3 stats did not prune: %+v", st)
			}
			rr, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close()
			got, gotIdx, st = rowScanCollect(t, rr, pd)
			requireScan(t, recs, rr, pd, got, gotIdx, st)
		})
	}
}

// TestBatchScanRangeValidation pins ScanBatch's block-range checks.
func TestBatchScanRangeValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rng.rec")
	writeFile(t, path, makeRecords(500, 34), WriterOptions{BlockSize: 1 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ScanBatch(-1, 1, nil); err == nil {
		t.Error("negative block range accepted")
	}
	if _, err := r.ScanBatch(0, r.NumBlocks()+1, nil); err == nil {
		t.Error("out-of-range block accepted")
	}
	// Disjoint halves cover everything exactly once.
	mid := r.NumBlocks() / 2
	total := 0
	rec := serde.NewRecord(r.Schema())
	for _, rng := range [][2]int{{0, mid}, {mid, r.NumBlocks()}} {
		sc, err := r.ScanBatch(rng[0], rng[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		for sc.Next() {
			b := sc.Batch()
			for _, row := range b.Sel() {
				if b.Base()+int64(row) != int64(total) {
					t.Fatalf("row %d has index %d", total, b.Base()+int64(row))
				}
				b.MaterializeInto(rec, int(row))
				total++
			}
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	}
	if total != 500 {
		t.Fatalf("split batch scan covered %d records", total)
	}
}

// TestBatchScanAllocs gates the zero-allocation batch path: after the
// first block sizes the scanner's buffers, decoding and filtering further
// blocks — string fields included — must not allocate per row.
func TestBatchScanAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "balloc.rec")
	recs := makeRecords(20000, 35)
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	minTS := recs[0].Get("ts").I
	maxTS := recs[len(recs)-1].Get("ts").I
	// Half-selectivity residual so the filter kernels run on every block.
	pd := &Pushdown{Filter: tsFilter(serde.Int((minTS+maxTS)/2), serde.Datum{}), Residual: true}
	sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() { // first Next sizes the vectors, masks, and block buffer
		t.Fatal(sc.Err())
	}
	rows := 0
	blocks := 40
	allocs := testing.AllocsPerRun(blocks, func() {
		if !sc.Next() {
			t.Fatalf("scan exhausted early: %v", sc.Err())
		}
		rows += len(sc.Batch().Sel())
	})
	perRow := allocs * float64(blocks+1) / float64(rows)
	if perRow > 0.05 {
		t.Fatalf("batch scan allocates %.4f objects per row (%.2f per block); want ~0", perRow, allocs)
	}
}
