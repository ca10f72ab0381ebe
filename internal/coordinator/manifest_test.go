package coordinator

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/storage"
	"github.com/euastar/euastar/internal/telemetry"
)

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		MaxEpoch: 42,
		Leases: []LeaseRecord{
			{Sweep: "job-1", Fingerprint: "v1|fig2|…", Cell: 0, Epoch: 41, Worker: "w1"},
			{Sweep: "job-1", Fingerprint: "v1|fig2|…", Cell: 3, Epoch: 42, Worker: "w2"},
		},
	}
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}

func TestManifestRejectsStaleWatermark(t *testing.T) {
	// A lease epoch above MaxEpoch means the watermark cannot fence: the
	// manifest must refuse to encode or decode such a state.
	m := Manifest{MaxEpoch: 5, Leases: []LeaseRecord{{Sweep: "s", Cell: 0, Epoch: 6, Worker: "w"}}}
	if _, err := EncodeManifest(m); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("encode: %v, want ErrManifestCorrupt", err)
	}
	ok := Manifest{MaxEpoch: 6, Leases: m.Leases}
	data, err := EncodeManifest(ok)
	if err != nil {
		t.Fatal(err)
	}
	// Splice the valid frame's payload under a doctored watermark by
	// re-encoding: simulate via direct decode of a hand-corrupted frame.
	for _, corrupt := range [][]byte{
		nil,
		[]byte("EUACMAN1"),
		append([]byte("XXXXXXXX"), data[8:]...),
		data[:len(data)-1],
		append(append([]byte{}, data...), 'x'),
	} {
		if _, err := DecodeManifest(corrupt); !errors.Is(err, ErrManifestCorrupt) {
			t.Fatalf("decode(%d bytes): %v, want ErrManifestCorrupt", len(corrupt), err)
		}
	}
	// Flip a payload byte: CRC must catch it.
	flipped := append([]byte{}, data...)
	flipped[len(flipped)-2] ^= 0xff
	if _, err := DecodeManifest(flipped); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("decode(flipped): %v, want ErrManifestCorrupt", err)
	}
}

func TestManifestRejectsDuplicateLease(t *testing.T) {
	m := Manifest{MaxEpoch: 9, Leases: []LeaseRecord{
		{Sweep: "s", Cell: 1, Epoch: 8, Worker: "w1"},
		{Sweep: "s", Cell: 1, Epoch: 9, Worker: "w2"},
	}}
	if _, err := EncodeManifest(m); !errors.Is(err, ErrManifestCorrupt) {
		t.Fatalf("duplicate (sweep, cell) encoded: %v", err)
	}
}

func TestLoadManifestMissingIsColdStart(t *testing.T) {
	m, err := LoadManifest(filepath.Join(t.TempDir(), "absent"))
	if err != nil || m.MaxEpoch != 0 {
		t.Fatalf("missing manifest: %+v, %v", m, err)
	}
}

// TestEpochsMonotonicAcrossRestart is the fencing property the manifest
// exists for: a successor coordinator must grant only epochs strictly
// above everything its predecessor granted, so a zombie holding a
// pre-restart lease can never collide with a reissued epoch.
func TestEpochsMonotonicAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leases.manifest")
	spec := testSpec(2, 1)
	store := experiment.NewMemStore()

	run := func() (highest uint64) {
		c := New(Config{LeaseTTL: time.Minute, ManifestPath: path, Registry: telemetry.NewRegistry(), Logf: t.Logf, now: newFakeClock().now})
		c.Register("w1")
		done := make(chan error, 1)
		go func() { done <- c.Distribute(context.Background(), "job-1", spec, store) }()
		deadline := time.Now().Add(5 * time.Second)
		var leases []LeaseResponse
		for len(leases) < 2 && time.Now().Before(deadline) {
			resp, err := c.Lease("w1")
			if err != nil {
				t.Fatal(err)
			}
			if resp.None {
				time.Sleep(time.Millisecond)
				continue
			}
			leases = append(leases, resp)
			if resp.Epoch > highest {
				highest = resp.Epoch
			}
		}
		if len(leases) < 2 {
			t.Fatal("never got two leases")
		}
		for _, l := range leases {
			if _, err := c.Commit(CommitRequest{Worker: "w1", Sweep: l.Sweep, Fingerprint: l.Fingerprint, Cell: l.Cell, Epoch: l.Epoch, Unit: unit(`{"u":1}`)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return highest
	}

	first := run()
	store = experiment.NewMemStore() // forget the cells so the sweep re-runs
	second := run()
	if second <= first {
		t.Fatalf("post-restart epoch %d not above pre-restart %d", second, first)
	}
}

// TestManifestSaveDurabilityOrder asserts the full durability recipe of
// a manifest save: temp write, temp fsync, rename, directory fsync — in
// that order. Without the directory fsync a crash can lose the renamed
// watermark, and a successor would reissue granted epochs.
func TestManifestSaveDurabilityOrder(t *testing.T) {
	var ops []string
	trace := &storage.TraceFS{Inner: storage.OS(), OnOp: func(op, path string) { ops = append(ops, op) }}
	if err := SaveManifestFS(trace, filepath.Join(t.TempDir(), "leases.manifest"), Manifest{MaxEpoch: 64}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"create", "write", "sync", "rename", "syncdir"}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops %v, want %v", ops, want)
	}
}

// TestManifestSaveFaultLeavesPreviousManifest: a save that dies mid-write
// (injected short write, ENOSPC or fsync error) must report the error,
// leave the previous manifest loadable and leave no temporary file.
func TestManifestSaveFaultLeavesPreviousManifest(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *storage.FaultPlan
	}{
		// After=3 lets the first save's write+sync+syncdir through, so the
		// fault lands on the second save's operations.
		{"short-write", &storage.FaultPlan{Seed: 3, ShortWriteProb: 1, After: 3}},
		{"write-err", &storage.FaultPlan{Seed: 3, WriteErrProb: 1, After: 3}},
		{"sync-err", &storage.FaultPlan{Seed: 3, SyncErrProb: 1, After: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "leases.manifest")
			fs := storage.NewFaultFS(storage.OS(), tc.plan)
			if err := SaveManifestFS(fs, path, Manifest{MaxEpoch: 64}); err != nil {
				t.Fatalf("save inside grace window: %v", err)
			}
			err := SaveManifestFS(fs, path, Manifest{MaxEpoch: 128})
			if !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, io.ErrShortWrite) && !errors.Is(err, syscall.EIO) {
				t.Fatalf("faulted save returned %v", err)
			}
			m, err := LoadManifest(path)
			if err != nil || m.MaxEpoch != 64 {
				t.Fatalf("reload after faulted save: %+v, %v; want the previous watermark 64", m, err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("directory holds %d entries, want the manifest alone", len(entries))
			}
		})
	}
}

// TestManifestSaveDirSyncFaultSurfaces: a directory-sync failure after
// the rename must surface as a save error — the rename may not survive a
// crash, so the watermark is not yet reserved.
func TestManifestSaveDirSyncFaultSurfaces(t *testing.T) {
	// Ops per save: write, sync, syncdir. After=2 exempts the write and
	// sync; op 2 is the syncdir, which faults.
	fs := storage.NewFaultFS(storage.OS(), &storage.FaultPlan{Seed: 1, SyncErrProb: 1, After: 2})
	err := SaveManifestFS(fs, filepath.Join(t.TempDir(), "leases.manifest"), Manifest{MaxEpoch: 64})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("save with failing dir sync: %v, want EIO", err)
	}
}

// FuzzLeaseManifest drives the wire format: decoding arbitrary bytes
// never panics; anything that decodes re-encodes deterministically and
// round-trips; and every decoded manifest upholds the fencing invariant
// (no lease epoch above the watermark, no duplicate assignment) — the
// properties commit fencing and restart monotonicity rest on.
func FuzzLeaseManifest(f *testing.F) {
	seed1, err := EncodeManifest(Manifest{MaxEpoch: 7, Leases: []LeaseRecord{{Sweep: "job", Fingerprint: "fp", Cell: 2, Epoch: 7, Worker: "w"}}})
	if err != nil {
		f.Fatal(err)
	}
	seed2, err := EncodeManifest(Manifest{MaxEpoch: 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte("EUACMAN1\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrManifestCorrupt) {
				t.Fatalf("decode error is not ErrManifestCorrupt: %v", err)
			}
			return
		}
		seen := make(map[string]map[int]bool)
		for _, l := range m.Leases {
			if l.Epoch == 0 || l.Epoch > m.MaxEpoch {
				t.Fatalf("decoded manifest violates epoch invariant: %+v", l)
			}
			if l.Cell < 0 {
				t.Fatalf("decoded manifest has negative cell: %+v", l)
			}
			if seen[l.Sweep][l.Cell] {
				t.Fatalf("decoded manifest has duplicate lease: %+v", l)
			}
			if seen[l.Sweep] == nil {
				seen[l.Sweep] = make(map[int]bool)
			}
			seen[l.Sweep][l.Cell] = true
		}
		enc1, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		enc2, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("encoding is not deterministic")
		}
		back, err := DecodeManifest(enc1)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if back.MaxEpoch != m.MaxEpoch || len(back.Leases) != len(m.Leases) {
			t.Fatalf("round trip changed the manifest: %+v vs %+v", back, m)
		}
	})
}
