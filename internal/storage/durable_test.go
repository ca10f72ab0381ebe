package storage

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// failFS fails the one operation named by op ("create", "write", "sync",
// "close", "rename" or "syncdir") with err, and records every operation.
type failFS struct {
	FS
	op  string
	err error
	ops []string
}

func (f *failFS) do(op string) error {
	f.ops = append(f.ops, op)
	if op == f.op {
		return f.err
	}
	return nil
}

func (f *failFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.do("create"); err != nil {
		return nil, err
	}
	inner, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failFile{File: inner, fs: f}, nil
}

func (f *failFS) Rename(oldpath, newpath string) error {
	if err := f.do("rename"); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *failFS) Remove(name string) error {
	f.do("remove")
	return f.FS.Remove(name)
}

func (f *failFS) SyncDir(dir string) error {
	if err := f.do("syncdir"); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFile) Write(p []byte) (int, error) {
	if err := f.fs.do("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if err := f.fs.do("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *failFile) Close() error {
	cerr := f.File.Close()
	if err := f.fs.do("close"); err != nil {
		return err
	}
	return cerr
}

// TestWriteFileAtomic drives WriteFileAtomic through success and each of
// its failure branches: the operation sequence, the error, what the
// target holds afterwards, and that no temporary file is left behind.
func TestWriteFileAtomic(t *testing.T) {
	boom := errors.New("injected")
	for _, tc := range []struct {
		fail string
		ops  []string
		want string // target content afterwards
	}{
		{"", []string{"create", "write", "sync", "close", "rename", "syncdir"}, "new"},
		{"create", []string{"create"}, "old"},
		{"write", []string{"create", "write", "close", "remove"}, "old"},
		{"sync", []string{"create", "write", "sync", "close", "remove"}, "old"},
		{"close", []string{"create", "write", "sync", "close", "remove"}, "old"},
		{"rename", []string{"create", "write", "sync", "close", "rename", "remove"}, "old"},
		// The rename happened: the new file is in place, but its
		// directory entry may not survive a crash, so the save failed.
		{"syncdir", []string{"create", "write", "sync", "close", "rename", "syncdir"}, "new"},
	} {
		t.Run("fail="+tc.fail, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			fs := &failFS{FS: OS(), op: tc.fail, err: boom}
			err := WriteFileAtomic(fs, path, []byte("new"))
			if tc.fail == "" && err != nil {
				t.Fatalf("clean write: %v", err)
			}
			if tc.fail != "" && !errors.Is(err, boom) {
				t.Fatalf("error %v, want the injected one", err)
			}
			if !reflect.DeepEqual(fs.ops, tc.ops) {
				t.Fatalf("ops %v, want %v", fs.ops, tc.ops)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.want {
				t.Fatalf("target holds %q, want %q", got, tc.want)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("directory holds %d entries, want the target alone", len(entries))
			}
		})
	}
}

// TestWriteFileAtomicCreatesTarget: replacing a file that does not exist
// yet creates it, with the temporary file staged beside it.
func TestWriteFileAtomicCreatesTarget(t *testing.T) {
	dir := t.TempDir()
	var created string
	fs := &TraceFS{Inner: OS(), OnOp: func(op, path string) {
		if op == "create" {
			created = path
		}
	}}
	path := filepath.Join(dir, "fresh")
	if err := WriteFileAtomic(fs, path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if created != dir {
		t.Fatalf("temporary file staged in %q, want %q", created, dir)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "x" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte(`{"seq":1}`), nil, []byte("third")}
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = ReadFrame(rest, 16)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %q, want %q", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	// The header is the payload length and its CRC-32C, little-endian.
	one := AppendFrame(nil, []byte("abc"))
	sum := Checksum([]byte("abc"))
	want := []byte{3, 0, 0, 0, byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24), 'a', 'b', 'c'}
	if !bytes.Equal(one, want) {
		t.Fatalf("frame bytes %v, want %v", one, want)
	}
	if sum != 0x364b3fb7 {
		t.Fatalf("CRC-32C(abc) = %#x, want 0x364b3fb7", sum)
	}
}

// TestReadFrameRefuses covers each way a frame is refused.
func TestReadFrameRefuses(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 0x01
	for name, tc := range map[string]struct {
		data  []byte
		limit int
	}{
		"short header":  {frame[:FrameHeaderSize-1], 64},
		"over limit":    {frame, len("payload") - 1},
		"short payload": {frame[:len(frame)-1], 64},
		"checksum":      {flipped, 64},
	} {
		if payload, rest, err := ReadFrame(tc.data, tc.limit); err == nil {
			t.Errorf("%s: accepted, payload %q rest %q", name, payload, rest)
		}
	}
}

// FuzzFrame holds the frame decoder to its contract: arbitrary bytes
// never panic it and never yield a payload past the cap; every encoded
// frame decodes to its payload; a truncated frame is refused; and a frame
// with one bit flipped never decodes as the whole frame — the checksum
// refuses a flip in the payload or the sum, and a flip in the length
// either runs past the data or leaves bytes after a shorter frame.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{}, []byte("payload"), uint(0))
	f.Add(AppendFrame(nil, []byte(`{"seq":1,"kind":"submitted"}`)), []byte{}, uint(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, []byte("x"), uint(77))
	f.Fuzz(func(t *testing.T, data, payload []byte, bit uint) {
		const limit = 256
		got, rest, err := ReadFrame(data, limit)
		if err == nil {
			if len(got) > limit {
				t.Fatalf("payload of %d bytes past the %d cap", len(got), limit)
			}
			if n := FrameHeaderSize + len(got); n+len(rest) != len(data) || !bytes.Equal(AppendFrame(nil, got), data[:n]) {
				t.Fatal("decoded frame is not the input's prefix")
			}
		}

		frame := AppendFrame(nil, payload)
		got, rest, err = ReadFrame(frame, len(payload))
		if err != nil || !bytes.Equal(got, payload) || len(rest) != 0 {
			t.Fatalf("encoded frame decoded to %q, rest %d, %v", got, len(rest), err)
		}
		cut := len(data) % len(frame)
		if _, _, err := ReadFrame(frame[:cut], len(payload)); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes accepted", cut, len(frame))
		}
		flipped := bytes.Clone(frame)
		i := bit % uint(8*len(frame))
		flipped[i/8] ^= 1 << (i % 8)
		if _, rest, err := ReadFrame(flipped, math.MaxInt32); err == nil && len(rest) == 0 {
			t.Fatalf("frame with bit %d flipped decoded as the whole frame", i)
		}
	})
}
