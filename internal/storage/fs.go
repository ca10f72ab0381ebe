// Package storage abstracts the filesystem operations the euad
// durability layer depends on (journal appends, atomic checkpoint
// rewrites, directory syncs) behind a small FS interface, so storage
// failures can be injected deterministically in tests and chaos suites
// exactly where a real disk would fail: ENOSPC on write, short writes,
// fsync errors, and latency spikes.
//
// It also holds the durable-write decisions every writer shares: one
// atomic file replacement (WriteFileAtomic) and one length + CRC-32C
// frame (AppendFrame, ReadFrame).
//
// The real implementation is OS(); NewFaultFS wraps any FS with a
// seed-derived fault plan in the internal/faults style — every fault
// decision is a pure function of the plan seed and the operation's
// sequence number, so a failing run replays identically.
package storage

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is the subset of *os.File the durability layer writes through.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size — the journal uses it to cut a
	// partially written frame back off after a failed append.
	Truncate(size int64) error
	Close() error
	Name() string
}

// FS is the filesystem surface the journal and checkpoint writers use.
// All paths are interpreted exactly as the os package would.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// OpenFile opens name with the given flags (the journal's append
	// handle); the returned File must support Truncate.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a uniquely named temporary file in dir (atomic
	// rewrite staging).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making a preceding rename
	// durable: without it a crash between rename and the directory's
	// metadata flush can lose the renamed file entirely.
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem implementation of FS.
func OS() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems cannot fsync a directory handle; the rename is
	// then as durable as that filesystem allows, which is not an error
	// the caller can act on.
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}

// TraceFS wraps an FS and reports every operation to OnOp before
// delegating — the recording layer fault-injection regression tests use
// to assert, for example, that a torn-tail repair is followed by a
// directory sync.
type TraceFS struct {
	Inner FS
	// OnOp receives the operation name ("write", "sync", "syncdir",
	// "rename", ...) and the path it applies to.
	OnOp func(op, path string)
}

func (t *TraceFS) note(op, path string) {
	if t.OnOp != nil {
		t.OnOp(op, path)
	}
}

func (t *TraceFS) ReadFile(name string) ([]byte, error) {
	t.note("read", name)
	return t.Inner.ReadFile(name)
}

func (t *TraceFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	t.note("open", name)
	f, err := t.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, fs: t}, nil
}

func (t *TraceFS) CreateTemp(dir, pattern string) (File, error) {
	t.note("create", dir)
	f, err := t.Inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, fs: t}, nil
}

func (t *TraceFS) Rename(oldpath, newpath string) error {
	t.note("rename", newpath)
	return t.Inner.Rename(oldpath, newpath)
}

func (t *TraceFS) Remove(name string) error {
	t.note("remove", name)
	return t.Inner.Remove(name)
}

func (t *TraceFS) MkdirAll(path string, perm os.FileMode) error {
	t.note("mkdir", path)
	return t.Inner.MkdirAll(path, perm)
}

func (t *TraceFS) SyncDir(dir string) error {
	t.note("syncdir", dir)
	return t.Inner.SyncDir(dir)
}

type traceFile struct {
	File
	fs *TraceFS
}

func (f *traceFile) Write(p []byte) (int, error) {
	f.fs.note("write", f.Name())
	return f.File.Write(p)
}

func (f *traceFile) Sync() error {
	f.fs.note("sync", f.Name())
	return f.File.Sync()
}

func (f *traceFile) Truncate(size int64) error {
	f.fs.note("truncate", f.Name())
	return f.File.Truncate(size)
}

// pathError builds the same error shape the os package produces, so
// errors.Is(err, syscall.ENOSPC) works on injected faults exactly as it
// would on real ones.
func pathError(op, path string, errno error) error {
	return &fs.PathError{Op: op, Path: path, Err: errno}
}
