package mapreduce

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"manimal/internal/btree"
	"manimal/internal/durable"
	"manimal/internal/interp"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

const kvMagic = "MANIMALK"

// Abortable lets an output discard a partially-written result — close any
// handles and remove the file, leaving nothing on disk. The engine aborts
// outputs (instead of closing them) when their producing task or job fails.
type Abortable interface {
	Abort() error
}

// abortOutput discards an output's partial result, falling back to Close
// for outputs that cannot remove what they wrote.
func abortOutput(o Output) {
	if a, ok := o.(Abortable); ok {
		a.Abort()
		return
	}
	o.Close()
}

// KVFileOutput writes the job's (key, value) pairs to a simple streaming
// container: the default final-output format. Pairs stream into an atomic
// file that Close commits onto the final path, so a crashed or canceled
// job never leaves a partial output where the caller's path points.
type KVFileOutput struct {
	f     *durable.File
	w     *bufio.Writer
	count uint64
	buf   []byte // reused per-write encoding buffer
	enc   valueEncoder
}

// NewKVFileOutput creates a KV output file destined for path (committed
// by Close).
func NewKVFileOutput(path string) (*KVFileOutput, error) {
	f, err := durable.Create(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: create output %s: %w", path, err)
	}
	w := bufio.NewWriterSize(f, 256<<10)
	if _, err := w.WriteString(kvMagic); err != nil {
		f.Abort()
		return nil, err
	}
	return &KVFileOutput{f: f, w: w}, nil
}

// Write implements Output. The key and value are fully serialized before
// Write returns; callers may reuse the backing record afterwards.
func (o *KVFileOutput) Write(k serde.Datum, v interp.EmitValue) error {
	o.buf = k.AppendTagged(o.buf[:0])
	kl := len(o.buf)
	o.buf = o.enc.appendValue(o.buf, v)
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(kl))
	n += binary.PutUvarint(hdr[n:], uint64(len(o.buf)-kl))
	if _, err := o.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := o.w.Write(o.buf); err != nil {
		return err
	}
	o.count++
	return nil
}

// Close writes the trailer, then commits the file onto the final path.
func (o *KVFileOutput) Close() error {
	fail := func(err error) error {
		o.f.Abort()
		return err
	}
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], o.count)
	if _, err := o.w.Write(tr[:]); err != nil {
		return fail(err)
	}
	if _, err := o.w.WriteString(kvMagic); err != nil {
		return fail(err)
	}
	if err := o.w.Flush(); err != nil {
		return fail(err)
	}
	return o.f.Commit()
}

// Abort implements Abortable: the partial temp file is removed; the final
// path is never touched.
func (o *KVFileOutput) Abort() error { return o.f.Abort() }

// KVPair is one read-back output pair.
type KVPair struct {
	Key   serde.Datum
	Value interp.EmitValue
}

// ReadKVFile loads an entire KV output file (tooling and tests).
func ReadKVFile(path string) ([]KVPair, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 2*len(kvMagic)+8 || string(raw[:len(kvMagic)]) != kvMagic ||
		string(raw[len(raw)-len(kvMagic):]) != kvMagic {
		return nil, fmt.Errorf("mapreduce: %s is not a Manimal KV file", path)
	}
	count := binary.LittleEndian.Uint64(raw[len(raw)-len(kvMagic)-8 : len(raw)-len(kvMagic)])
	body := raw[len(kvMagic) : len(raw)-len(kvMagic)-8]
	out := make([]KVPair, 0, count)
	var dec valueDecoder
	pos := 0
	for i := uint64(0); i < count; i++ {
		kl, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("mapreduce: truncated KV entry %d", i)
		}
		pos += n
		vl, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("mapreduce: truncated KV entry %d", i)
		}
		pos += n
		key, _, err := serde.DecodeTagged(body[pos : pos+int(kl)])
		if err != nil {
			return nil, err
		}
		pos += int(kl)
		val, _, err := dec.decode(body[pos : pos+int(vl)])
		if err != nil {
			return nil, err
		}
		pos += int(vl)
		out = append(out, KVPair{Key: key, Value: val})
	}
	return out, nil
}

// SortKVPairs orders pairs by key then scalar value, for deterministic
// comparison of outputs produced with different parallelism.
func SortKVPairs(pairs []KVPair) {
	sort.Slice(pairs, func(i, j int) bool {
		if c := pairs[i].Key.Compare(pairs[j].Key); c != 0 {
			return c < 0
		}
		return pairs[i].Value.D.Compare(pairs[j].Value.D) < 0
	})
}

// RecordFileOutput writes emitted record values into a storage record file
// (used by index-generation jobs for projection and compression indexes).
// Emitted values must be records matching the schema; keys are dropped.
type RecordFileOutput struct {
	w *storage.Writer
}

// NewRecordFileOutput creates a record-file output with the given per-field
// encodings.
func NewRecordFileOutput(path string, schema *serde.Schema, opts storage.WriterOptions) (*RecordFileOutput, error) {
	w, err := storage.NewWriter(path, schema, opts)
	if err != nil {
		return nil, err
	}
	return &RecordFileOutput{w: w}, nil
}

// Write implements Output. Records with a wider schema are projected down
// to the output schema (how projection index-generation drops fields).
func (o *RecordFileOutput) Write(_ serde.Datum, v interp.EmitValue) error {
	if v.Rec == nil {
		return fmt.Errorf("mapreduce: record-file output needs record values")
	}
	rec, err := conformRecord(v.Rec, o.w.Schema())
	if err != nil {
		return err
	}
	return o.w.Append(rec)
}

// Close implements Output.
func (o *RecordFileOutput) Close() error { return o.w.Close() }

// Abort implements Abortable: the partial record file is removed.
func (o *RecordFileOutput) Abort() error { return o.w.Abort() }

// BTreeOutput bulk-loads emitted (key, record) pairs into a B+Tree index
// (or one shard of a sharded index). Keys must arrive in non-decreasing
// order, which the engine guarantees per reduce task (each partition's
// shuffle merge is key-ordered); selection index-generation jobs run with
// N reducers under a RangePartitioner, giving each reduce task its own
// BTreeOutput (via Job.OutputFor) so every shard bulk-loads in parallel.
type BTreeOutput struct {
	b *btree.Builder
}

// NewBTreeOutput creates a B+Tree output.
func NewBTreeOutput(path string, schema *serde.Schema, keyExpr string) (*BTreeOutput, error) {
	b, err := btree.NewBuilder(path, schema, keyExpr, btree.BuilderOptions{})
	if err != nil {
		return nil, err
	}
	return &BTreeOutput{b: b}, nil
}

// Write implements Output. Records with a wider schema are projected down
// to the tree's stored schema (combined selection+projection indexes).
func (o *BTreeOutput) Write(k serde.Datum, v interp.EmitValue) error {
	if v.Rec == nil {
		return fmt.Errorf("mapreduce: B+Tree output needs record values")
	}
	rec, err := conformRecord(v.Rec, o.b.Schema())
	if err != nil {
		return err
	}
	return o.b.Add(k, rec)
}

// Close implements Output.
func (o *BTreeOutput) Close() error { return o.b.Close() }

// Abort implements Abortable: the partial index file is removed.
func (o *BTreeOutput) Abort() error { return o.b.Abort() }

// conformRecord projects a record down to the target schema when needed.
func conformRecord(rec *serde.Record, schema *serde.Schema) (*serde.Record, error) {
	if rec.Schema().Equal(schema) {
		return rec, nil
	}
	return rec.Project(schema)
}

// DiscardOutput counts and drops pairs; used by benchmarks that measure
// pure processing cost.
type DiscardOutput struct{ N int64 }

// Write implements Output.
func (o *DiscardOutput) Write(serde.Datum, interp.EmitValue) error {
	o.N++
	return nil
}

// Close implements Output.
func (o *DiscardOutput) Close() error { return nil }

var _ io.Writer = (*bufio.Writer)(nil) // interface sanity during refactors
