package coordinator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/euastar/euastar/internal/storage"
)

// The lease manifest persists the coordinator's epoch watermark (and the
// current assignments, for observability) across restarts. Its one hard
// job is epoch monotonicity: a coordinator that restarts must never
// reissue an epoch a previous incarnation already granted, because epoch
// comparison is the only thing fencing a zombie worker that computed a
// cell under the old incarnation. The file is its magic followed by one
// storage frame, the job journal's framing: a torn write surfaces as
// ErrManifestCorrupt, never as a silently wrong watermark.

// manifestMagic identifies a lease manifest file (8 bytes).
const manifestMagic = "EUACMAN1"

// maxManifestSize bounds how much a decoder will accept; a manifest
// holds a watermark and at most a few thousand lease rows.
const maxManifestSize = 1 << 22

// ErrManifestCorrupt reports a manifest that failed framing, checksum,
// or semantic validation. A corrupt manifest cannot prove any epoch
// watermark, so callers must treat it as absent AND re-fence by other
// means: New logs it and starts epochs from zero, relying on per-job
// fingerprints, and the next save overwrites the file.
var ErrManifestCorrupt = errors.New("coordinator: lease manifest corrupt")

// Manifest is the persisted lease state.
type Manifest struct {
	// MaxEpoch is the highest epoch ever granted. Successor coordinators
	// start granting strictly above it.
	MaxEpoch uint64 `json:"max_epoch"`
	// Leases snapshots the outstanding assignments at save time.
	Leases []LeaseRecord `json:"leases,omitempty"`
}

// LeaseRecord is one outstanding assignment.
type LeaseRecord struct {
	Sweep       string `json:"sweep"`
	Fingerprint string `json:"fingerprint"`
	Cell        int    `json:"cell"`
	Epoch       uint64 `json:"epoch"`
	Worker      string `json:"worker"`
}

// EncodeManifest frames a manifest: magic, length, CRC-32C, JSON. The
// encoding is deterministic — identical manifests produce identical
// bytes — so round-tripping is byte-stable.
func EncodeManifest(m Manifest) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return storage.AppendFrame([]byte(manifestMagic), payload), nil
}

// DecodeManifest parses and validates a framed manifest. Any framing,
// checksum, or semantic violation returns ErrManifestCorrupt (wrapped
// with detail); it never panics, whatever the input.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	frame, ok := bytes.CutPrefix(data, []byte(manifestMagic))
	if !ok {
		return m, fmt.Errorf("%w: bad magic", ErrManifestCorrupt)
	}
	payload, rest, err := storage.ReadFrame(frame, maxManifestSize)
	if err != nil {
		return m, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("%w: %d bytes past the frame", ErrManifestCorrupt, len(rest))
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, fmt.Errorf("%w: %v", ErrManifestCorrupt, err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// validate enforces the manifest's semantic invariants: every lease
// epoch is positive and at or below the watermark (an epoch above
// MaxEpoch means the watermark cannot fence, which defeats the file's
// purpose), cells are non-negative, and no (sweep, cell) appears twice
// (a cell has at most one valid lease at a time).
func (m Manifest) validate() error {
	seen := make(map[string]struct{}, len(m.Leases))
	for _, l := range m.Leases {
		if l.Epoch == 0 {
			return fmt.Errorf("%w: lease for %s cell %d has epoch 0", ErrManifestCorrupt, l.Sweep, l.Cell)
		}
		if l.Epoch > m.MaxEpoch {
			return fmt.Errorf("%w: lease epoch %d exceeds watermark %d", ErrManifestCorrupt, l.Epoch, m.MaxEpoch)
		}
		if l.Cell < 0 {
			return fmt.Errorf("%w: negative cell %d", ErrManifestCorrupt, l.Cell)
		}
		key := l.Sweep + "\x00" + fmt.Sprint(l.Cell)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("%w: duplicate lease for %s cell %d", ErrManifestCorrupt, l.Sweep, l.Cell)
		}
		seen[key] = struct{}{}
	}
	return nil
}

// SaveManifest is SaveManifestFS on the real filesystem.
func SaveManifest(path string, m Manifest) error {
	return SaveManifestFS(storage.OS(), path, m)
}

// SaveManifestFS durably replaces the manifest at path through fs
// (storage.WriteFileAtomic), so a crash mid-save leaves either the old
// file or the new one, never a torn frame, and a returned nil means the
// rename itself is on disk.
func SaveManifestFS(fs storage.FS, path string, m Manifest) error {
	data, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(fs, path, data)
}

// LoadManifest is LoadManifestFS on the real filesystem.
func LoadManifest(path string) (Manifest, error) {
	return LoadManifestFS(storage.OS(), path)
}

// LoadManifestFS reads the manifest at path through fs. A missing file
// is a clean cold start (zero manifest, nil error); a present-but-invalid
// file returns ErrManifestCorrupt so the caller decides how to re-fence.
func LoadManifestFS(fs storage.FS, path string) (Manifest, error) {
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Manifest{}, nil
	}
	if err != nil {
		return Manifest{}, err
	}
	return DecodeManifest(data)
}
