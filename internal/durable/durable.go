// Package durable owns how bytes become durable on disk. Every file the
// system publishes (record files, KV outputs, B+Tree shards and
// manifests, result-cache artifacts, the catalog snapshot) and every
// record it journals goes through one of its two mechanisms:
//
//   - An atomic file: Create returns a temp file in the destination's
//     directory, and Commit makes it the destination with fsync → close →
//     rename → directory fsync. A crash leaves either the old file or the
//     new one, never a torn one, and at worst a "<base>.tmp-*" orphan.
//     The faultinject crash point fires just before the rename, so every
//     commit can be failed on purpose; the destination is then untouched.
//
//   - A log: a file of newline-terminated records that writers in several
//     processes append to, each append under an exclusive flock and
//     fsynced before it returns. A last line without its newline is an
//     append a crash cut short: readers never see it, and the next append
//     cuts it off. An append that fails is truncated away, so a record
//     the caller was told failed can never be read later.
//
// Shuffle spill files are deliberately not durable and do not use this
// package: they live only as long as the job that wrote them.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"manimal/internal/faultinject"
)

// File is a temp file that Commit publishes at its destination path.
type File struct {
	f    *os.File
	path string
	done bool // committed, failed or aborted: the temp file is gone or published
}

// Create starts an atomic write of path: a uniquely named temp file in
// path's directory. Nothing at path changes until Commit.
func Create(path string) (*File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &File{f: f, path: path}, nil
}

// Write appends p to the temp file.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// ReadFrom appends r's contents to the temp file; io.Copy uses it, so a
// copy from another file can stay in the kernel.
func (f *File) ReadFrom(r io.Reader) (int64, error) { return f.f.ReadFrom(r) }

// Commit publishes the temp file at the destination: fsync, close, the
// faultinject crash point, rename, and an fsync of the directory so the
// rename survives a crash. Any failure before the rename removes the temp
// file and leaves the destination as it was. An error from the directory
// fsync comes after the rename: the new file is in place but may not
// survive a crash.
func (f *File) Commit() error {
	f.done = true
	tmp := f.f.Name()
	err := f.f.Sync()
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faultinject.Fail(faultinject.PointCrashRename, filepath.Base(f.path))
	}
	if err == nil {
		err = os.Rename(tmp, f.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: commit %s: %w", f.path, err)
	}
	if err := syncDir(filepath.Dir(f.path)); err != nil {
		return fmt.Errorf("durable: commit %s: %w", f.path, err)
	}
	return nil
}

// Abort discards the temp file; the destination is never touched. It is a
// no-op after Commit, whether the commit succeeded or failed.
func (f *File) Abort() error {
	if f.done {
		return nil
	}
	f.done = true
	f.f.Close()
	if err := os.Remove(f.f.Name()); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// WriteFile atomically replaces path with raw.
func WriteFile(path string, raw []byte) error {
	f, err := Create(path)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Abort()
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	return f.Commit()
}

// syncDir fsyncs a directory so a just-created or renamed entry in it
// survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
