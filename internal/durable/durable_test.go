package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"manimal/internal/faultinject"
)

func read(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func temps(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCommit: the destination keeps its old content until Commit, then
// holds the new one, with no temp file left either way.
func TestCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.kv")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "old" || len(temps(t, dir)) != 1 {
		t.Fatalf("before Commit: %q, temps %v", got, temps(t, dir))
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "new" || len(temps(t, dir)) != 0 {
		t.Fatalf("after Commit: %q, temps %v", got, temps(t, dir))
	}
	if err := f.Abort(); err != nil || read(t, path) != "new" {
		t.Fatalf("Abort after Commit: %v, content %q", err, read(t, path))
	}
	if err := f.Commit(); err == nil {
		t.Fatal("second Commit succeeded")
	}
}

// TestAbortAndCrash: Abort, and a crash injected before the rename, both
// leave the destination untouched and remove the temp file.
func TestAbortAndCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx0")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("partial"))
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "old" || len(temps(t, dir)) != 0 {
		t.Fatalf("after Abort: %q, temps %v", got, temps(t, dir))
	}

	faultinject.Set(faultinject.MustParse("crash=1@idx0;seed=1"))
	defer faultinject.Reset()
	if err := WriteFile(path, []byte("new")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("WriteFile under a crash rule = %v, want the injected fault", err)
	}
	if got := read(t, path); got != "old" || len(temps(t, dir)) != 0 {
		t.Fatalf("after a crashed commit: %q, temps %v", got, temps(t, dir))
	}
	faultinject.Reset()
	if err := WriteFile(path, []byte("new")); err != nil || read(t, path) != "new" {
		t.Fatalf("WriteFile = %v, content %q", err, read(t, path))
	}
}

func scanAll(t *testing.T, l *Log) []string {
	t.Helper()
	var lines []string
	if err := l.Scan(0, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestLogAppend: the first append creates the log and its directory, an
// append must follow a scan to the end, and a reader sees the lines.
func TestLogAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "x.log")
	if _, err := ReadLog(path); !os.IsNotExist(err) {
		t.Fatalf("ReadLog of a missing log = %v, want not-exist", err)
	}
	l, err := AppendLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("a")); err == nil {
		t.Fatal("Append before Scan succeeded")
	}
	if got := scanAll(t, l); len(got) != 0 {
		t.Fatalf("new log holds %q", got)
	}
	long := strings.Repeat("x", 200<<10) // longer than the scan buffer
	for _, line := range []string{"a", long, "b"} {
		if err := l.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := read(t, path); got != "a\n"+long+"\nb\n" {
		t.Fatalf("log holds %d bytes", len(got))
	}
	r, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := scanAll(t, r)
	if len(got) != 3 || got[0] != "a" || got[1] != long || got[2] != "b" || r.End() != int64(len(long)+5) {
		t.Fatalf("scanned %d lines, End %d", len(got), r.End())
	}
	if err := r.Scan(r.End()+1, func([]byte) error { return nil }); err == nil {
		t.Fatal("Scan past the end succeeded")
	}
	stop := errors.New("stop")
	if err := r.Scan(0, func(line []byte) error {
		if string(line) == "b" {
			return stop
		}
		return nil
	}); err != stop || r.End() != int64(len(long)+3) {
		t.Fatalf("Scan stopped by fn = %v, End %d", err, r.End())
	}
}

// TestLogTornTail: a last line without its newline is not passed to
// readers, and the next append cuts it off.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, []byte("a\nbro"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, r); len(got) != 1 || got[0] != "a" || r.End() != 2 {
		t.Fatalf("scan with a torn tail = %q, End %d", got, r.End())
	}
	r.Close()
	if got := read(t, path); got != "a\nbro" {
		t.Fatalf("reading changed the log: %q", got)
	}
	l, err := AppendLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	scanAll(t, l)
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "a\nc\n" {
		t.Fatalf("log after appending past a torn tail = %q", got)
	}
}

// TestLogConcurrentWriters: writers holding separate handles (as separate
// processes would) serialize on the lock; every line lands whole.
func TestLogConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l, err := AppendLog(path)
				if err != nil {
					t.Error(err)
					return
				}
				err = l.Scan(0, func([]byte) error { return nil })
				if err == nil {
					err = l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				}
				l.Close()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := scanAll(t, r)
	if len(got) != writers*each {
		t.Fatalf("%d lines, want %d", len(got), writers*each)
	}
	if size, _ := r.Size(); size != r.End() || !bytes.HasSuffix([]byte(read(t, path)), []byte("\n")) {
		t.Fatalf("log size %d, End %d", size, r.End())
	}
}

// TestLogFailedAppendLeavesNoRecord: an append whose write fails part-way
// (here at a file-size limit) is truncated away, so the refused record is
// never read, and the next append lands where it would have.
func TestLogFailedAppendLeavesNoRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := AppendLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	scanAll(t, l)
	if err := l.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skip(err)
	}
	low := old
	low.Cur = 8
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Skip(err)
	}
	err = l.Append([]byte("0123456789"))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("append past the file-size limit succeeded")
	}
	if got := read(t, path); got != "a\n" || l.End() != 2 {
		t.Fatalf("after a failed append the log holds %q, End %d", got, l.End())
	}
	if err := l.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "a\nb\n" {
		t.Fatalf("append after a failed one: %q", got)
	}
}
