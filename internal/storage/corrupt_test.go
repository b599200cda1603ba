package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/faultinject"
)

// TestOnDiskBitFlipDetected: flipping one byte inside a block on disk must
// surface as a typed CorruptBlockError (not a garbled decode) when the
// block is read, with the file, block index, and offset filled in.
func TestOnDiskBitFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.rec")
	writeFile(t, path, makeRecords(2000, 1), WriterOptions{BlockSize: 4 << 10})

	// Flip a byte early in the first block's payload (the header before
	// the first block — magic plus schema — is not checksummed; a flip
	// there fails the schema parse instead).
	r0, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blk0 := r0.blocks[0].offset
	r0.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[blk0+17] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open should succeed (the footer is intact): %v", err)
	}
	defer r.Close()
	sc, err := r.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	err = sc.Err()
	if err == nil {
		t.Fatal("scan over a flipped block reported no error")
	}
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("err = %v; want errors.Is(err, ErrCorruptBlock)", err)
	}
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("err = %v; want a *CorruptBlockError in the chain", err)
	}
	if cbe.Path != path {
		t.Errorf("CorruptBlockError.Path = %q, want %q", cbe.Path, path)
	}
	if cbe.Block != 0 {
		t.Errorf("CorruptBlockError.Block = %d, want 0", cbe.Block)
	}
}

// TestChecksumCoversEveryBlock flips a byte in each block region in turn
// and requires every flip to be caught — no block is left unchecksummed.
func TestChecksumCoversEveryBlock(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.rec")
	writeFile(t, clean, makeRecords(3000, 2), WriterOptions{BlockSize: 4 << 10})
	r, err := Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	nblocks := r.NumBlocks()
	type span struct{ off, len int64 }
	spans := make([]span, nblocks)
	for i := range spans {
		spans[i] = span{r.blocks[i].offset, r.blocks[i].length}
	}
	r.Close()
	if nblocks < 3 {
		t.Fatalf("want >= 3 blocks, got %d", nblocks)
	}
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spans {
		mut := append([]byte(nil), raw...)
		mut[sp.off+sp.len/2] ^= 0x01
		path := filepath.Join(dir, "mut.rec")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rr, err := Open(path)
		if err != nil {
			t.Fatalf("block %d: open: %v", i, err)
		}
		sc, err := rr.Scan(i, i+1)
		if err != nil {
			t.Fatalf("block %d: scan: %v", i, err)
		}
		for sc.Next() {
		}
		if !errors.Is(sc.Err(), ErrCorruptBlock) {
			t.Errorf("block %d: flip not detected (err = %v)", i, sc.Err())
		}
		rr.Close()
	}
}

// TestCrashBeforeRenameLeavesNoFinalFile: a simulated crash between the
// temp file's fsync and the rename must leave the final path untouched
// and no temp debris behind.
func TestCrashBeforeRenameLeavesNoFinalFile(t *testing.T) {
	faultinject.Set(faultinject.MustParse("crash=1@crash.rec;seed=1"))
	defer faultinject.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.rec")
	w, err := NewWriter(path, testSchema, WriterOptions{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(100, 3) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	err = w.Close()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Close err = %v; want the injected crash", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("final path exists after crash-before-rename (stat err = %v)", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("debris left after crashed commit: %s", e.Name())
	}
}

// TestWriterAbortNeverTouchesFinalPath: aborting a writer mid-stream (a
// losing or failed task attempt) removes the temp file and leaves any
// pre-existing file at the final path exactly as it was.
func TestWriterAbortNeverTouchesFinalPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.rec")
	if err := os.WriteFile(path, []byte("previous contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(path, testSchema, WriterOptions{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(50, 4) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous contents" {
		t.Errorf("Abort modified the final path: %q", got)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("temp debris left after Abort: %v", left)
	}
}

// TestOpenBoundsMetadataLengths: every length Open allocates from — the
// header length, the footer length, the block count, the schema field
// count — is checked against the bytes that can hold it first, so a
// damaged length word is an error, never an out-of-memory crash or a
// panic.
func TestOpenBoundsMetadataLengths(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.rec")
	writeFile(t, good, makeRecords(500, 12), WriterOptions{BlockSize: 1 << 10})
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trailer := len(raw) - 16 // uint64le footer length, then the magic
	ftrLen := int(binary.LittleEndian.Uint64(raw[trailer:]))
	ftrStart := trailer - ftrLen
	hdrLen, hdrUsed := binary.Uvarint(raw[len(magicHeader):])
	hdrStart := len(magicHeader) + hdrUsed

	// splice replaces raw[lo:hi] with b.
	splice := func(lo, hi int, b []byte) []byte {
		out := append([]byte(nil), raw[:lo]...)
		out = append(out, b...)
		return append(out, raw[hi:]...)
	}
	footerWord := func(v uint64) []byte {
		out := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(out[trailer:], v)
		return out
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	_, nbUsed := binary.Uvarint(raw[ftrStart:])
	hugeBlocks := splice(ftrStart, ftrStart+nbUsed, huge)
	binary.LittleEndian.PutUint64(hugeBlocks[len(hugeBlocks)-16:], uint64(ftrLen-nbUsed+len(huge)))
	hdrBody := raw[hdrStart : hdrStart+int(hdrLen)]
	_, fieldsUsed := binary.Uvarint(hdrBody)
	body := append(append([]byte(nil), huge...), hdrBody[fieldsUsed:]...)
	hugeFields := append([]byte(magicHeader), binary.AppendUvarint(nil, uint64(len(body)))...)
	hugeFields = append(append(hugeFields, body...), raw[hdrStart+int(hdrLen):]...)

	cases := map[string]struct {
		bytes []byte
		typed bool // reported as ErrCorruptFile
	}{
		"footer-length-2^40":        {footerWord(1 << 40), true},
		"footer-length-2^63":        {footerWord(1 << 63), true},
		"footer-length-past-header": {footerWord(uint64(len(raw))), true},
		"header-length-2^40":        {splice(len(magicHeader), hdrStart, huge), true},
		"block-count-2^40":          {hugeBlocks, true},
		"schema-fields-2^40":        {hugeFields, false},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".rec")
			if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err == nil {
				r.Close()
				t.Fatal("damaged metadata accepted")
			}
			if c.typed && !errors.Is(err, ErrCorruptFile) {
				t.Fatalf("error %v does not match ErrCorruptFile", err)
			}
		})
	}
}

// TestBlockRecordCountChecked: a block's record count sizes the decoder's
// column vectors, and a file sealed without block checksums cannot vouch
// for it. A count of 2^40 — in the block header and the footer alike —
// must be a CorruptBlockError, not an out-of-memory crash.
func TestBlockRecordCountChecked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nocrc.rec")
	writeFile(t, path, makeRecords(20, 13), WriterOptions{}) // one block
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen, used := binary.Uvarint(raw[len(magicHeader):])
	blk := len(magicHeader) + used + int(hdrLen)
	payloadLen, plUsed := binary.Uvarint(raw[blk:])
	_, recUsed := binary.Uvarint(raw[blk+plUsed:])
	payload := raw[blk+plUsed+recUsed : blk+plUsed+recUsed+int(payloadLen)]
	trailer := len(raw) - 16
	oldFtr := raw[trailer-int(binary.LittleEndian.Uint64(raw[trailer:])) : trailer]
	pos := 0
	for i := 0; i < 4; i++ { // block count, then offset, length, records
		_, n := binary.Uvarint(oldFtr[pos:])
		pos += n
	}
	statsAndDicts := oldFtr[pos : len(oldFtr)-len(magicChecksums)-4] // drop "CRC1" + one CRC

	const huge = 1 << 40
	out := append([]byte(nil), raw[:blk]...)
	out = binary.AppendUvarint(out, payloadLen)
	out = binary.AppendUvarint(out, huge)
	out = append(out, payload...)
	var ftr []byte
	ftr = binary.AppendUvarint(ftr, 1)
	ftr = binary.AppendUvarint(ftr, uint64(blk))
	ftr = binary.AppendUvarint(ftr, uint64(len(out)-blk))
	ftr = binary.AppendUvarint(ftr, huge)
	ftr = append(ftr, statsAndDicts...)
	out = append(out, ftr...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ftr)))
	out = append(out, magicFooterV4...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := r.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	if !errors.Is(sc.Err(), ErrCorruptBlock) {
		t.Fatalf("scan error %v, want a corrupt block", sc.Err())
	}
}
