// Package storage implements Manimal's on-disk record file: a blocked,
// splittable container of schema-typed records, with per-field encodings
// (plain, delta-compressed, dictionary-compressed). Both the original input
// files and every index variant the optimizer produces (projected files,
// compressed files) are record files; the B+Tree (package btree) is the one
// other on-disk structure.
//
// # On-disk format
//
// A record file is header, blocks, footer:
//
//	"MANIMAL1" | uvarint hdrLen | schema wire form | one encoding byte per field
//	repeated blocks: uvarint payloadLen | uvarint records | payload
//	footer | uint64le footerLen | "MANIMAL4"
//
// Block payloads are COLUMNAR (format v4): one uvarint segment length per
// schema field, then the fields' value segments concatenated in schema
// order. Within its segment, plain fields use the kind-implied serde value
// encoding, delta fields a zigzag-varint difference chain reset per block,
// dict fields a uvarint dictionary code. Per-field segments are what make
// scans cheap — a masked or filtered-on field is one contiguous slice,
// bulk-decodable without stepping over its neighbors, and a masked field
// is never touched. Files sealed with the "MANIMAL3" trailer (format v3)
// interleave rows field by field within one payload (no segment lengths)
// and remain fully readable: the scanner gathers each field's values into
// a segment first. The footer (located via the fixed-size trailer) holds:
//
//	uvarint numBlocks
//	per block:  uvarint offset | uvarint length | uvarint records
//	per block, per field (zone-map stats, format v3):
//	    flags byte (bit0 min present, bit1 max present)
//	    uvarint null count
//	    [min value] [max value]   — kind-implied encodings
//	per dict field: term count + length-prefixed terms in code order
//	optional trailing section: "CRC1" + one uint32le CRC32C per block
//
// The checksum section (a v4 footer extension) carries one CRC32C
// (Castagnoli) checksum over each block's full on-disk bytes, verified
// the first time a Reader reads the block — skipped blocks are never
// hashed and re-reads through the same reader skip the hash, so pruned
// and repeated scans pay nothing. Files sealed before the section
// existed (and all v2/v3 files) simply lack it and verify nothing. A
// mismatch surfaces as a CorruptBlockError (wrapping ErrCorruptBlock),
// which the engine classifies as permanent.
//
// Stats are computed on LOGICAL values before encoding, so predicates over
// original values prune delta- and dict-encoded blocks too. Numeric and
// bool bounds are exact; string/bytes bounds are conservative envelopes
// clipped to a 16-byte prefix — min is a prefix (orders at or below the
// true minimum), max is the exact value or the lexicographic successor of
// its prefix (orders at or above the true maximum), and an all-0xFF prefix
// leaves the max absent (unbounded). Pruning logic may therefore conclude
// only "no value in this block can match", never the converse.
//
// Files sealed with the previous "MANIMAL2" trailer (format v2, no stats
// section, row-interleaved payloads) remain fully readable: Reader reports
// FormatVersion 2 and HasStats false, and every scan simply proceeds
// unpruned.
//
// # Scans
//
// BatchScanner (Reader.ScanBatch) is the one block decoder: each surviving
// block's unmasked fields bulk-decode into one reused serde.Batch of flat
// column vectors, the residual filter runs as vectorized kernels producing
// a selection vector, and rows are only materialized (into a caller-reused
// record) on demand — late materialization. Scanner (Reader.ScanPushdown,
// ScanAll, SharedScanner.Rows) is the per-row view over a batch iterator.
// Everything borrowed from a batch is valid only until the scanner's next
// batch (see serde.Vector).
//
// # Scan pushdown
//
// Both accept a Pushdown (block-level zone-map filter, per-row
// residual filter, used-field decode mask). Ownership of LEGALITY sits
// with the planner (package optimizer): skipping blocks or rows elides
// map() invocations — admissible exactly when the paper's selection
// optimization is — and masking a field is admissible exactly when
// projection may drop it. This package applies a pushdown mechanically and
// guarantees only equivalence: surviving rows decode byte-identically to
// an unpruned scan, masked fields read as their kind's zero value, and
// RecordIndex reports stable whole-file positions.
//
// # Buffer ownership
//
// Scanner runs allocation-free by materializing every row into one reused
// record whose string/bytes fields alias the reused batch: the record
// returned by Scanner.Record (and any datum read out of it) is valid only
// until the next call to Next. Callers that retain records across
// iterations — collecting into a slice, building a MemInput, buffering on
// the reduce side — must call Record().Clone(), which deep-copies the
// variable-length payloads. ReadAll already returns cloned records.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"manimal/internal/compress"
	"manimal/internal/durable"
	"manimal/internal/faultinject"
	"manimal/internal/serde"
)

// castagnoli is the CRC32C polynomial table used for block checksums
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FieldEncoding selects how one field's values are stored within a block.
type FieldEncoding uint8

const (
	// EncodePlain stores the schema-implied serde encoding.
	EncodePlain FieldEncoding = iota
	// EncodeDelta stores zigzag-varint deltas (numeric fields only).
	EncodeDelta
	// EncodeDict stores dictionary codes (string fields only).
	EncodeDict
)

// String returns the encoding's name for descriptors and tooling.
func (e FieldEncoding) String() string {
	switch e {
	case EncodePlain:
		return "plain"
	case EncodeDelta:
		return "delta"
	case EncodeDict:
		return "dict"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

const (
	magicHeader = "MANIMAL1"
	// magicFooterV2 seals pre-stats footers (format version 2): block index
	// and dictionaries only. Still readable; scans simply cannot prune.
	magicFooterV2 = "MANIMAL2"
	// magicFooterV3 seals stats-bearing footers (format version 3): block
	// index, per-block zone-map stats, then dictionaries. Block payloads
	// are row-interleaved.
	magicFooterV3 = "MANIMAL3"
	// magicFooterV4 seals columnar files (format version 4): the footer
	// layout is identical to v3, but block payloads carry per-field
	// segment lengths followed by contiguous per-field segments.
	magicFooterV4 = "MANIMAL4"
	// magicChecksums introduces the optional per-block CRC32C section at
	// the end of a v4 footer (after the dictionaries). Files without it
	// remain readable and verify nothing.
	magicChecksums = "CRC1"

	// FormatVersion is the version new writers produce.
	FormatVersion = 4

	// DefaultBlockSize is the target uncompressed payload per block.
	DefaultBlockSize = 256 << 10
)

// blockInfo locates one block inside the file.
type blockInfo struct {
	offset  int64
	length  int64
	records int64
}

// WriterOptions configures a record file writer.
type WriterOptions struct {
	// Encodings maps field name to encoding; absent fields are plain.
	Encodings map[string]FieldEncoding
	// BlockSize is the target block payload size; 0 means DefaultBlockSize.
	BlockSize int
}

// Writer writes a record file. The writer streams into a uniquely-named
// temp file next to the destination and COMMITS it — fsync, rename onto
// the final path, fsync the parent directory — only in Close: a crash (or
// abort) mid-write can never leave a partial file at a path the catalog
// fingerprints as valid, and concurrent task attempts writing the same
// destination never collide (the first Close wins the rename).
type Writer struct {
	f         *durable.File
	path      string // final destination; the temp file renames onto it in Close
	schema    *serde.Schema
	encodings []FieldEncoding
	deltas    []*compress.DeltaEncoder // per field, nil unless delta
	dicts     []*compress.Dictionary   // per field, nil unless dict
	blockSize int
	fieldBufs [][]byte // current block's per-field value segments
	fieldLen  int      // total bytes across fieldBufs
	scratch   []byte   // reused block header assembly buffer
	blockRecs int64
	offset    int64
	blocks    []blockInfo
	curStats  []FieldStats // zone-map accumulator for the open block
	stats     []byte       // encoded per-block stats, appended per flush
	crcs      []uint32     // per-block CRC32C over the full on-disk block bytes
	records   int64
	closed    bool
}

// NewWriter creates a record file destined for path, writing into a
// uniquely-named temp file in path's directory until Close renames it
// into place. Any file already at path is untouched until then.
// Construction errors remove only the temp file.
func NewWriter(path string, schema *serde.Schema, opts WriterOptions) (*Writer, error) {
	f, err := durable.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	fail := func(err error) (*Writer, error) {
		f.Abort()
		return nil, err
	}
	w := &Writer{
		f:         f,
		path:      path,
		schema:    schema,
		encodings: make([]FieldEncoding, schema.NumFields()),
		deltas:    make([]*compress.DeltaEncoder, schema.NumFields()),
		dicts:     make([]*compress.Dictionary, schema.NumFields()),
		fieldBufs: make([][]byte, schema.NumFields()),
		curStats:  make([]FieldStats, schema.NumFields()),
		blockSize: opts.BlockSize,
	}
	if w.blockSize <= 0 {
		w.blockSize = DefaultBlockSize
	}
	for name, enc := range opts.Encodings {
		i := schema.IndexOf(name)
		if i < 0 {
			return fail(fmt.Errorf("storage: encoding for unknown field %q", name))
		}
		kind := schema.Field(i).Kind
		switch enc {
		case EncodePlain:
		case EncodeDelta:
			d, err := compress.NewDeltaEncoder(kind)
			if err != nil {
				return fail(fmt.Errorf("storage: field %q: %w", name, err))
			}
			w.deltas[i] = d
		case EncodeDict:
			if kind != serde.KindString {
				return fail(fmt.Errorf("storage: dict encoding requires string field, %q is %v", name, kind))
			}
			w.dicts[i] = compress.NewDictionary()
		default:
			return fail(fmt.Errorf("storage: unknown encoding %d for field %q", enc, name))
		}
		w.encodings[i] = enc
	}
	if err := w.writeHeader(); err != nil {
		return fail(err)
	}
	return w, nil
}

func (w *Writer) writeHeader() error {
	var hdr []byte
	hdr = w.schema.AppendBinary(hdr)
	for _, e := range w.encodings {
		hdr = append(hdr, byte(e))
	}
	out := []byte(magicHeader)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	n, err := w.f.Write(out)
	w.offset = int64(n)
	if err != nil {
		return fmt.Errorf("storage: write header: %w", err)
	}
	return nil
}

// Append adds one record, which must match the writer's schema.
func (w *Writer) Append(r *serde.Record) error {
	if w.closed {
		return fmt.Errorf("storage: append to closed writer")
	}
	if !r.Schema().Equal(w.schema) {
		return fmt.Errorf("storage: record schema %s != file schema %s", r.Schema(), w.schema)
	}
	for i := 0; i < w.schema.NumFields(); i++ {
		d := r.At(i)
		if !d.IsValid() {
			return fmt.Errorf("storage: record field %q unset", w.schema.Field(i).Name)
		}
		// Zone-map stats accumulate on the LOGICAL value, before any
		// encoding, so predicates over original values can prune blocks of
		// delta- and dict-encoded fields alike. Values append to the
		// field's own segment (columnar v4 layout).
		w.curStats[i].update(d)
		was := len(w.fieldBufs[i])
		switch w.encodings[i] {
		case EncodePlain:
			w.fieldBufs[i] = d.AppendValue(w.fieldBufs[i])
		case EncodeDelta:
			var err error
			w.fieldBufs[i], err = w.deltas[i].Append(w.fieldBufs[i], d)
			if err != nil {
				return err
			}
		case EncodeDict:
			w.fieldBufs[i] = binary.AppendUvarint(w.fieldBufs[i], w.dicts[i].Encode(d.S))
		}
		w.fieldLen += len(w.fieldBufs[i]) - was
	}
	w.blockRecs++
	w.records++
	if w.fieldLen >= w.blockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.blockRecs == 0 {
		return nil
	}
	// v4 block: uvarint payloadLen | uvarint records | per-field uvarint
	// segment lengths | field segments in schema order. The segment-length
	// table counts toward payloadLen.
	hdr := w.scratch[:0]
	segTab := 0
	for _, fb := range w.fieldBufs {
		segTab += uvarintLen(uint64(len(fb)))
	}
	hdr = binary.AppendUvarint(hdr, uint64(segTab+w.fieldLen))
	hdr = binary.AppendUvarint(hdr, uint64(w.blockRecs))
	for _, fb := range w.fieldBufs {
		hdr = binary.AppendUvarint(hdr, uint64(len(fb)))
	}
	w.scratch = hdr
	// Key materialized only when an injector is installed: this is the
	// per-block write path, and a disabled hook must cost one atomic load.
	if faultinject.Enabled() {
		if err := faultinject.Fail(faultinject.PointStorageWrite,
			fmt.Sprintf("%s#%d", filepath.Base(w.path), len(w.blocks))); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(hdr); err != nil {
		return fmt.Errorf("storage: write block header: %w", err)
	}
	written := len(hdr)
	crc := crc32.Update(0, castagnoli, hdr)
	for _, fb := range w.fieldBufs {
		if _, err := w.f.Write(fb); err != nil {
			return fmt.Errorf("storage: write block: %w", err)
		}
		written += len(fb)
		crc = crc32.Update(crc, castagnoli, fb)
	}
	w.crcs = append(w.crcs, crc)
	w.blocks = append(w.blocks, blockInfo{
		offset:  w.offset,
		length:  int64(written),
		records: w.blockRecs,
	})
	w.stats = appendBlockStats(w.stats, w.curStats)
	for i := range w.curStats {
		w.curStats[i].reset()
	}
	w.offset += int64(written)
	for i := range w.fieldBufs {
		w.fieldBufs[i] = w.fieldBufs[i][:0]
	}
	w.fieldLen = 0
	w.blockRecs = 0
	for _, d := range w.deltas {
		if d != nil {
			d.Reset()
		}
	}
	return nil
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// NumRecords returns the number of records appended so far.
func (w *Writer) NumRecords() int64 { return w.records }

// Close flushes the final block, writes the stats-bearing footer (with
// the per-block checksum section), then COMMITS: fsync the temp file,
// rename it onto the final path, fsync the parent directory. Any failure
// before the rename — block flush, footer write, sync — removes the temp
// file and leaves the final path untouched, so a crash mid-commit can
// never present a partial record file where a reader (or the catalog's
// fingerprinting) expects a complete one.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	fail := func(err error) error {
		w.f.Abort()
		return err
	}
	if err := w.flushBlock(); err != nil {
		return fail(err)
	}
	var ftr []byte
	ftr = binary.AppendUvarint(ftr, uint64(len(w.blocks)))
	for _, b := range w.blocks {
		ftr = binary.AppendUvarint(ftr, uint64(b.offset))
		ftr = binary.AppendUvarint(ftr, uint64(b.length))
		ftr = binary.AppendUvarint(ftr, uint64(b.records))
	}
	ftr = append(ftr, w.stats...)
	for i, d := range w.dicts {
		if w.encodings[i] == EncodeDict {
			ftr = d.AppendBinary(ftr)
		}
	}
	ftr = append(ftr, magicChecksums...)
	for _, crc := range w.crcs {
		ftr = binary.LittleEndian.AppendUint32(ftr, crc)
	}
	ftr = binary.LittleEndian.AppendUint64(ftr, uint64(len(ftr)))
	ftr = append(ftr, magicFooterV4...)
	if _, err := w.f.Write(ftr); err != nil {
		return fail(fmt.Errorf("storage: write footer: %w", err))
	}
	return w.f.Commit()
}

// Abort closes the writer and removes the partial temp file; used when
// the producing job (or a losing task attempt) must be discarded. The
// final path is never touched. A no-op after a successful Close, and
// tolerant of the temp file already being gone (a failed Close removes
// it).
func (w *Writer) Abort() error {
	w.closed = true
	return w.f.Abort()
}

// Schema returns the writer's file schema.
func (w *Writer) Schema() *serde.Schema { return w.schema }
