package coordinator

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestManifestBytesGolden pins the lease manifest's on-disk bytes for a
// fixed manifest. The golden is never regenerated: a byte change here is
// a manifest format change, and a successor coordinator that cannot read
// its predecessor's watermark restarts its epochs from zero.
func TestManifestBytesGolden(t *testing.T) {
	m := Manifest{
		MaxEpoch: 128,
		Leases: []LeaseRecord{
			{Sweep: "job-1", Fingerprint: "v1|fig2|seeds=[1 2]|dims=[2 2]", Cell: 0, Epoch: 65, Worker: "w1"},
			{Sweep: "job-1", Fingerprint: "v1|fig2|seeds=[1 2]|dims=[2 2]", Cell: 3, Epoch: 66, Worker: "w2"},
			{Sweep: "job-2", Fingerprint: "v1|fig3|seeds=[1]|dims=[1 2 1]", Cell: 1, Epoch: 67, Worker: "w1"},
		},
	}
	path := filepath.Join(t.TempDir(), "leases.manifest")
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "leases.manifest.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("manifest bytes differ from testdata/leases.manifest.golden:\ngot  %q\nwant %q", got, want)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip: got %+v, want %+v", back, m)
	}
}
