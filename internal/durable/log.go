package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Log is an open log file held under a flock; Close releases both. A
// writer must Scan to the end before it may Append, so it has seen every
// record other writers left and knows where its own begins.
type Log struct {
	f       *os.File
	end     int64 // just past the last complete line scanned or appended
	size    int64 // file size when last scanned or appended
	scanned bool  // the last Scan reached the end of the file
}

// ReadLog opens the log at path under a shared lock, which waits out any
// append in progress. A missing log is an os.IsNotExist error; ReadLog
// never writes.
func ReadLog(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return lock(f, syscall.LOCK_SH)
}

// AppendLog opens the log at path under an exclusive lock, which
// serializes writers across processes. A missing log is created with its
// directory, and the directory fsynced so the new file survives a crash.
func AppendLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		dir := filepath.Dir(path)
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
		}
		if err == nil {
			if err = syncDir(dir); err != nil {
				f.Close()
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return lock(f, syscall.LOCK_EX)
}

func lock(f *os.File, how int) (*Log, error) {
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if err == nil {
			return &Log{f: f}, nil
		}
		if err != syscall.EINTR {
			f.Close()
			return nil, fmt.Errorf("durable: lock %s: %w", f.Name(), err)
		}
	}
}

// Close releases the lock and the file.
func (l *Log) Close() error { return l.f.Close() }

// Size returns the log file's current length, torn tail included.
func (l *Log) Size() (int64, error) {
	st, err := l.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	return st.Size(), nil
}

// End returns the offset just past the last complete line scanned or
// appended.
func (l *Log) End() int64 { return l.end }

// Scan calls fn with each complete line, without its newline, from off on;
// off must start a line. Bytes after the last newline are a torn tail and
// are not passed on. An error from fn stops Scan, which returns it with
// End just before that line.
func (l *Log) Scan(off int64, fn func(line []byte) error) error {
	l.scanned = false
	size, err := l.Size()
	if err != nil {
		return err
	}
	if off > size {
		return fmt.Errorf("durable: %s: offset %d past the end (%d bytes)", l.f.Name(), off, size)
	}
	l.end, l.size = off, size
	r := bufio.NewReader(io.NewSectionReader(l.f, off, size-off))
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			l.scanned = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("durable: read %s: %w", l.f.Name(), err)
		}
		if err := fn(line[:len(line)-1]); err != nil {
			return err
		}
		l.end += int64(len(line))
	}
}

// Append writes line and a newline as one record and fsyncs it, after
// cutting off a torn tail. If the write or the fsync fails, the file is
// truncated back to where the record began, so a record reported as
// failed is never read later.
func (l *Log) Append(line []byte) error {
	if !l.scanned {
		return fmt.Errorf("durable: append to %s before scanning it to the end", l.f.Name())
	}
	if l.size > l.end {
		if err := l.f.Truncate(l.end); err != nil {
			return fmt.Errorf("durable: cut torn tail of %s: %w", l.f.Name(), err)
		}
		l.size = l.end
	}
	_, err := l.f.Write(append(line[:len(line):len(line)], '\n'))
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.end); terr != nil {
			l.scanned = false // the record may stay in the file: append no more
			err = fmt.Errorf("%w (truncating it back: %v)", err, terr)
		}
		return fmt.Errorf("durable: append to %s: %w", l.f.Name(), err)
	}
	l.end += int64(len(line) + 1)
	l.size = l.end
	return nil
}

// Reset empties the log, once its records are folded into a snapshot.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: reset %s: %w", l.f.Name(), err)
	}
	l.end, l.size = 0, 0
	return nil
}
