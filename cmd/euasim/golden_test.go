package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenAllArgs is the fixed invocation whose stdout, -json document and
// checkpoint are pinned by testdata/golden_all.txt, golden_all.json and
// golden_all_checkpoint.json. Two seeds make the ± columns print. To
// regenerate, run from a scratch directory (the JSON path is echoed):
//
//	euasim -exp all -seeds 2 -horizon 0.1 -loads 0.4,1.4 \
//	    -json out.json -checkpoint ckpt.json > golden_all.txt
var goldenAllArgs = []string{"-exp", "all", "-seeds", "2", "-horizon", "0.1", "-loads", "0.4,1.4"}

// runGoldenAll runs goldenAllArgs plus extra with -json into dir and
// returns stdout, with the JSON path normalized to "out.json", and the
// -json document.
func runGoldenAll(t *testing.T, dir string, extra ...string) (stdout, doc []byte) {
	t.Helper()
	jsonPath := filepath.Join(dir, "out.json")
	args := append(append([]string{}, goldenAllArgs...), "-json", jsonPath)
	var out bytes.Buffer
	if err := run(append(args, extra...), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(strings.ReplaceAll(out.String(), jsonPath, "out.json")), doc
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenAll pins every experiment's output: a fresh `-exp all` run
// must reproduce the committed tables and -json document byte for byte,
// and a -resume run over the committed checkpoint must reproduce them
// without recomputing a cell. A changed fingerprint or cell unit makes
// the resume recompute and rewrite the checkpoint, which fails the
// unchanged-bytes check.
func TestGoldenAll(t *testing.T) {
	wantOut, wantDoc := readGolden(t, "golden_all.txt"), readGolden(t, "golden_all.json")
	check := func(what string, stdout, doc []byte) {
		t.Helper()
		if !bytes.Equal(stdout, wantOut) {
			t.Errorf("%s: stdout drifted from testdata/golden_all.txt\n--- want ---\n%s--- got ---\n%s", what, wantOut, stdout)
		}
		if !bytes.Equal(doc, wantDoc) {
			t.Errorf("%s: -json drifted from testdata/golden_all.json\n--- want ---\n%s--- got ---\n%s", what, wantDoc, doc)
		}
	}

	stdout, doc := runGoldenAll(t, t.TempDir())
	check("fresh run", stdout, doc)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	wantCkpt := readGolden(t, "golden_all_checkpoint.json")
	if err := os.WriteFile(ckpt, wantCkpt, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, doc = runGoldenAll(t, dir, "-checkpoint", ckpt, "-resume")
	check("resumed run", stdout, doc)
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantCkpt) {
		t.Error("resumed run rewrote the checkpoint: a fingerprint or cell unit changed, so cells were recomputed")
	}
}
