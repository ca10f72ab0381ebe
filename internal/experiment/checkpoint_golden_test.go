package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointBytesGolden pins the checkpoint's on-disk bytes — the
// version-2 JSON document with its CRC-32C over the experiments payload —
// for fixed saves across two experiments, one of them re-fingerprinted.
// The golden is never regenerated: a byte change here is a checkpoint
// format change, which would make every existing checkpoint recompute.
func TestCheckpointBytesGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	s, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		exp, fp string
		cell    int
		raw     string
	}{
		{"fig3", "v1|fig3|stale", 0, `{"utility":{"EUA*":0.5}}`},
		{"fig2", "v1|fig2|seeds=[1 2]|dims=[2 2]", 0, `{"utility":{"EUA*":1,"GUS":0.75},"energy":{"EUA*":0.1296,"GUS":1}}`},
		{"fig2", "v1|fig2|seeds=[1 2]|dims=[2 2]", 3, `{"utility":{"EUA*":0.875,"GUS":0.5},"energy":{"EUA*":0.25,"GUS":1}}`},
		{"fig3", "v1|fig3|seeds=[1]|dims=[1 2 1]", 1, `{"utility":{"EUA*":1},"energy":{"EUA*":0.5}}`},
	} {
		if err := s.Save(c.exp, c.fp, c.cell, json.RawMessage(c.raw)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes differ from testdata/checkpoint.golden:\ngot  %s\nwant %s", got, want)
	}
	re, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := re.Lookup("fig2", "v1|fig2|seeds=[1 2]|dims=[2 2]", 3); !ok || !bytes.Contains(raw, []byte(`0.875`)) {
		t.Fatalf("cell 3 reloaded as %s, %v", raw, ok)
	}
}
