package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/experiment"
)

// TestSchedTakesSchemeNames: -sched takes every name of the scheme table
// and runs the scheduler of that name; any other name is refused with
// the table's names.
func TestSchedTakesSchemeNames(t *testing.T) {
	for _, name := range strings.Split(experiment.SchemeNameList(), "|") {
		var out bytes.Buffer
		if err := run([]string{"-sched", name, "-horizon", "0.05"}, &out); err != nil {
			t.Fatalf("-sched %s: %v", name, err)
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); first != "scheduler     "+name {
			t.Errorf("-sched %s printed %q", name, first)
		}
	}
	for _, name := range []string{"bogus", "eua"} {
		err := run([]string{"-sched", name}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), experiment.SchemeNameList()) {
			t.Errorf("-sched %s: error %v does not list the scheme names", name, err)
		}
	}
}

func TestRunDefaultScenario(t *testing.T) {
	for _, args := range [][]string{
		{"-horizon", "0.2"},
		{"-sched", "laEDF-NA", "-load", "1.4", "-horizon", "0.2"},
		{"-app", "A1", "-tuf", "linear", "-horizon", "0.2"},
		{"-app", "A3", "-energy", "E3", "-horizon", "0.2", "-gantt", "-width", "40"},
	} {
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := run([]string{"-horizon", "0.2", "-csv", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "task,job,start,end") {
		t.Fatalf("csv header: %.60s", data)
	}
}

func TestRunTasksFile(t *testing.T) {
	doc := `{"tasks": [
	  {"id":1,"name":"x","a":1,"window_ms":100,
	   "tuf":{"shape":"step","umax":5},
	   "mean_cycles":1e6,"variance_cycles":0,"nu":1,"rho":0.9}]}`
	path := filepath.Join(t.TempDir(), "tasks.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-tasks", path, "-load", "0.5", "-horizon", "0.3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-sched", "bogus"},
		{"-app", "A9"},
		{"-tuf", "cubic"},
		{"-energy", "E9"},
		{"-tasks", "/nonexistent/tasks.json"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestShippedWorkloadFileLoads(t *testing.T) {
	if err := run([]string{"-tasks", "../../examples/quickstart/workload.json",
		"-load", "0.4", "-horizon", "0.2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// goldenArgs is the fixed invocation whose output is pinned by
// testdata/golden_output.txt. Keep in sync with the regeneration command
// in the golden file's sibling JSON comment.
var goldenArgs = []string{
	"-tasks", "testdata/golden_tasks.json",
	"-sched", "EUA*", "-seed", "7",
	"-load", "0.8", "-horizon", "0.4",
	"-gantt", "-width", "72",
}

// TestGoldenTrace is the scheduler-behaviour regression gate: a fixed
// workload, seed and horizon must reproduce the committed euatrace output
// byte for byte. Any refactor that silently changes a scheduling
// decision, a frequency choice, or the RNG stream shows up here as a
// diff. The -tasks path is echoed into the output, so regenerate from
// this directory (the test's working directory) to keep it stable:
//
//	cd cmd/euatrace && go run . -tasks testdata/golden_tasks.json \
//	    -sched 'EUA*' -seed 7 -load 0.8 -horizon 0.4 -gantt -width 72 \
//	    > testdata/golden_output.txt
func TestGoldenTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(goldenArgs, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("euatrace output drifted from golden file (scheduler decisions changed?)\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// goldenDegradedArgs is the golden scenario plus a fault plan that
// injects exactly one execution-time overrun and one sticky frequency
// switch on this workload; pinned by testdata/golden_degraded.txt.
var goldenDegradedArgs = append(append([]string{}, goldenArgs...),
	"-faults", "seed=1,overrun=0.03,sticky=0.1")

// TestGoldenDegradedTrace is the graceful-degradation regression gate: a
// degraded-mode run (one sticky-switch fault + one overrun) must stay
// byte-stable, pinning both the fault injection points and how the
// scheduler reacts to them. Regenerate like the healthy golden:
//
//	cd cmd/euatrace && go run . -tasks testdata/golden_tasks.json \
//	    -sched 'EUA*' -seed 7 -load 0.8 -horizon 0.4 -gantt -width 72 \
//	    -faults seed=1,overrun=0.03,sticky=0.1 > testdata/golden_degraded.txt
func TestGoldenDegradedTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_degraded.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(goldenDegradedArgs, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "degraded      2 faults injected") {
		t.Fatalf("degraded run did not report its 2 injected faults:\n%s", out.String())
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("degraded euatrace output drifted from golden file\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestFaultsFlagRejected pins -faults validation at the CLI boundary.
func TestFaultsFlagRejected(t *testing.T) {
	for _, spec := range []string{"overrun=2", "nonsense", "overrun=x", "sticky=-1"} {
		if err := run(append(append([]string{}, goldenArgs...), "-faults", spec), io.Discard); err == nil {
			t.Fatalf("-faults %q accepted", spec)
		}
	}
}

// TestGoldenTraceStable runs the golden scenario twice in one process:
// equal outputs prove the trace depends only on its inputs, not on
// leftover state from a previous run.
func TestGoldenTraceStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(goldenArgs, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(goldenArgs, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two identical euatrace runs produced different output")
	}
}
