package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// WriteFileAtomic durably replaces path with data through fs: the bytes
// go to a temporary file in path's directory, which is fsynced, closed
// and renamed over path, and then the directory is fsynced so the rename
// itself survives a crash. A reader sees the old file or the new one,
// never a torn mix. The temporary file is removed on any failure before
// the rename; a failed directory sync leaves the new file in place, but
// the caller must not count it durable.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), path)
	}
	if err != nil {
		fs.Remove(tmp.Name())
		return err
	}
	return fs.SyncDir(dir)
}

// FrameHeaderSize is the length of a frame's header: the payload length
// and the payload's CRC-32C, each a little-endian uint32. The journal's
// records and the lease manifest are framed this way.
const FrameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C (Castagnoli) of p: the sum every frame carries,
// and the one the experiment checkpoint stores in its JSON crc field.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendFrame appends payload to dst as one frame and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// ReadFrame decodes the frame at the start of data and returns its
// payload (a subslice of data) and the bytes after the frame. It refuses
// a frame whose header or payload is cut short, whose length exceeds
// limit — so a corrupt length never sizes anything — or whose checksum
// does not match.
func ReadFrame(data []byte, limit int) (payload, rest []byte, err error) {
	if len(data) < FrameHeaderSize {
		return nil, nil, fmt.Errorf("frame header cut short at %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if uint64(n) > uint64(limit) {
		return nil, nil, fmt.Errorf("frame length %d exceeds limit %d", n, limit)
	}
	body := data[FrameHeaderSize:]
	if uint64(len(body)) < uint64(n) {
		return nil, nil, fmt.Errorf("frame payload cut short: %d of %d bytes", len(body), n)
	}
	if Checksum(body[:n]) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, nil, errors.New("frame checksum mismatch")
	}
	return body[:n], body[n:], nil
}
