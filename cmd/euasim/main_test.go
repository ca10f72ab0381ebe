package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/experiment"
)

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("0.2, 0.5,1.8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.2 || got[2] != 1.8 {
		t.Fatalf("loads = %v", got)
	}
	for _, bad := range []string{"", "x", "0.5,-1", "0"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRunTables(t *testing.T) {
	if err := run([]string{"-exp", "table1,table2"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallSweeps(t *testing.T) {
	args := []string{"-seeds", "1", "-horizon", "0.3", "-loads", "0.5,1.5"}
	for _, exp := range []string{"fig2", "fig3", "assurance", "ablation", "budget", "latency", "ladder", "contention"} {
		if err := run(append([]string{"-exp", exp}, args...), io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunChartAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	err := run([]string{"-exp", "fig2", "-seeds", "1", "-horizon", "0.3",
		"-loads", "0.5", "-chart", "-json", path}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"experiment": "fig2"`) {
		t.Fatalf("json output: %.200s", data)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nonsense"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestAdmitSchemes: -admit prints a verdict for a scheme of the scheme
// table and refuses any other name with the table's names.
func TestAdmitSchemes(t *testing.T) {
	const doc = "../../examples/quickstart/workload.json"
	var out bytes.Buffer
	if err := run([]string{"-admit", doc, "-scheme", "GUS", "-load", "1.4"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "GUS") || !strings.Contains(out.String(), "utilization=") {
		t.Fatalf("-admit -scheme GUS printed no verdict:\n%s", out.String())
	}
	err := run([]string{"-admit", doc, "-scheme", "bogus"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), experiment.SchemeNameList()) {
		t.Fatalf("-scheme bogus: error %v does not list the scheme names", err)
	}
}

// TestWorkersFlag pins the -workers contract: invalid counts are rejected
// before any simulation runs, counts above the number of jobs are clamped
// and still work, and a valid run accepts any positive count.
func TestWorkersFlag(t *testing.T) {
	small := []string{"-exp", "fig2", "-seeds", "1", "-horizon", "0.3", "-loads", "0.5"}
	cases := []struct {
		name    string
		workers string
		wantErr bool
	}{
		{name: "negative", workers: "-3", wantErr: true},
		{name: "zero", workers: "0", wantErr: true},
		{name: "one", workers: "1", wantErr: false},
		{name: "several", workers: "7", wantErr: false},
		{name: "more-than-jobs", workers: "500", wantErr: false},
		{name: "not-a-number", workers: "many", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-workers", c.workers}, small...)
			err := run(args, io.Discard, io.Discard)
			if c.wantErr && err == nil {
				t.Fatalf("-workers %s accepted", c.workers)
			}
			if !c.wantErr && err != nil {
				t.Fatalf("-workers %s: %v", c.workers, err)
			}
		})
	}
}

// TestWorkersOutputIdentical is the CLI-level determinism check: stdout
// must be byte-identical for every worker count (timing goes to the diag
// writer, which is allowed to differ).
func TestWorkersOutputIdentical(t *testing.T) {
	capture := func(workers string) string {
		var out bytes.Buffer
		err := run([]string{"-exp", "fig2,assurance", "-seeds", "2", "-horizon", "0.3",
			"-loads", "0.5,1.5", "-workers", workers}, &out, io.Discard)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return out.String()
	}
	seq := capture("1")
	if par := capture("8"); par != seq {
		t.Fatalf("stdout differs between -workers 1 and -workers 8:\n--- 1 ---\n%s--- 8 ---\n%s", seq, par)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-loads", "abc"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad loads accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-seeds", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("zero seeds accepted")
	}
	// -h must surface flag.ErrHelp (main maps it to exit code 0).
	if err := run([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestDiagReporting checks that progress/timing lands on the diag writer,
// not on stdout.
func TestDiagReporting(t *testing.T) {
	var out, diag bytes.Buffer
	err := run([]string{"-exp", "table1", "-workers", "2"}, &out, &diag)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diag.String(), "table1 done in") {
		t.Fatalf("diag output missing timing: %q", diag.String())
	}
	if strings.Contains(out.String(), "done in") {
		t.Fatal("timing leaked into stdout")
	}
}

// TestFaultsFlag: an injected fault plan keeps the CLI determinism
// contract (stdout identical across worker counts) and bad specs are
// rejected at the flag boundary.
func TestFaultsFlag(t *testing.T) {
	capture := func(workers string) string {
		var out bytes.Buffer
		err := run([]string{"-exp", "fig2", "-seeds", "2", "-horizon", "0.3",
			"-loads", "0.5,1.5", "-workers", workers,
			"-faults", "seed=11,overrun=0.2,sticky=0.2"}, &out, io.Discard)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return out.String()
	}
	seq := capture("1")
	if par := capture("8"); par != seq {
		t.Fatalf("faulted stdout differs between -workers 1 and -workers 8:\n--- 1 ---\n%s--- 8 ---\n%s", seq, par)
	}
	for _, spec := range []string{"overrun=2", "nonsense", "bursts=x"} {
		if err := run([]string{"-exp", "fig2", "-faults", spec}, io.Discard, io.Discard); err == nil {
			t.Fatalf("-faults %q accepted", spec)
		}
	}
}

// TestFaultSweepExperiment smoke-tests the dedicated faults experiment
// through the CLI.
func TestFaultSweepExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "faults", "-seeds", "1", "-horizon", "0.3"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "intensity") {
		t.Fatalf("faults experiment wrote no table:\n%s", out.String())
	}
}

// TestResumeNeedsCheckpoint pins the flag dependency.
func TestResumeNeedsCheckpoint(t *testing.T) {
	if err := run([]string{"-exp", "fig2", "-resume"}, io.Discard, io.Discard); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}

// TestCheckpointResumeIdenticalStdout: a checkpointed run, then a -resume
// run that recomputes nothing, must both match the plain run byte for
// byte — resuming changes where results come from, never what they are.
func TestCheckpointResumeIdenticalStdout(t *testing.T) {
	args := []string{"-exp", "fig2", "-seeds", "2", "-horizon", "0.3", "-loads", "0.5,1.5"}
	capture := func(extra ...string) string {
		var out bytes.Buffer
		if err := run(append(append([]string{}, args...), extra...), &out, io.Discard); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		return out.String()
	}
	plain := capture()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	first := capture("-checkpoint", path)
	resumed := capture("-checkpoint", path, "-resume")
	if first != plain {
		t.Fatalf("checkpointed stdout differs from plain run:\n--- plain ---\n%s--- checkpointed ---\n%s", plain, first)
	}
	if resumed != plain {
		t.Fatalf("resumed stdout differs from plain run:\n--- plain ---\n%s--- resumed ---\n%s", plain, resumed)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing after run: %v", err)
	}
}

// TestSignalFlushesPartialResults: a SIGINT delivered before the sweep
// starts must still produce the experiment header on stdout, a non-nil
// error, and a diag line saying results were flushed.
func TestSignalFlushesPartialResults(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	sigs <- os.Interrupt
	var out, diag bytes.Buffer
	err := runWithSignals([]string{"-exp", "fig2", "-seeds", "1", "-horizon", "0.3",
		"-loads", "0.5"}, &out, &diag, sigs)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !strings.Contains(diag.String(), "stopping and flushing") {
		t.Fatalf("diag missing flush notice: %q", diag.String())
	}
	if !strings.Contains(out.String(), "== fig2") {
		t.Fatalf("stdout missing experiment header: %q", out.String())
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

// TestInterruptStopsDespiteWriteError: an interrupted sweep whose table
// cannot be written still stops the run before the next experiment, and
// the run fails naming both the interruption and the write.
func TestInterruptStopsDespiteWriteError(t *testing.T) {
	sigs := make(chan os.Signal, 1)
	sigs <- os.Interrupt
	var diag bytes.Buffer
	err := runWithSignals([]string{"-exp", "fig2,fig3", "-seeds", "1", "-horizon", "0.3",
		"-loads", "0.5"}, failWriter{}, &diag, sigs)
	if err == nil || !strings.Contains(err.Error(), "interrupted") || !strings.Contains(err.Error(), "write failed") {
		t.Fatalf("err = %v, want the interruption and the write failure", err)
	}
	if strings.Contains(diag.String(), "fig3 done") {
		t.Fatalf("fig3 ran after an interrupted fig2:\n%s", &diag)
	}
}

// TestTimeoutReportedAndPartialFlushed: with an unmeetable per-cell
// timeout every cell fails, yet euasim still writes the (empty) table and
// the -json artifact before exiting non-zero, and the error names the
// timeout.
func TestTimeoutReportedAndPartialFlushed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	// The horizon is deliberately huge: if the 1ns deadline has not passed
	// when the attempt's context is made, a timer goroutine cancels it,
	// and on a loaded machine a short cell could finish before that
	// goroutine is scheduled. A long cell cannot, and it still exits almost
	// immediately once the stop lands.
	err := run([]string{"-exp", "fig2", "-seeds", "1", "-horizon", "500",
		"-loads", "0.5", "-timeout", "1ns", "-json", path}, &out, io.Discard)
	if err == nil {
		t.Fatal("timed-out sweep reported success")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error does not mention the timeout: %v", err)
	}
	if !strings.Contains(out.String(), "Figure 2") {
		t.Fatalf("partial table not flushed:\n%s", out.String())
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("json artifact not flushed before non-zero exit: %v", statErr)
	}
}

// TestFailedSweepReportedOnce: each sweep whose cells time out is
// reported on one stderr line, as main prints it, that names it once.
func TestFailedSweepReportedOnce(t *testing.T) {
	for _, c := range []struct {
		exps string
		want []string
	}{
		{"fig2", []string{"fig2"}},
		{"fig2,fig3", []string{"fig2", "fig3"}},
	} {
		var diag bytes.Buffer
		err := run([]string{"-exp", c.exps, "-seeds", "1", "-horizon", "0.3", "-loads", "0.5", "-timeout", "1ns"},
			io.Discard, &diag)
		if err == nil {
			t.Fatalf("-exp %s: timed-out sweep reported success", c.exps)
		}
		report(&diag, err)
		var failed []string
		for _, line := range strings.Split(diag.String(), "\n") {
			if strings.Contains(line, "failed") {
				failed = append(failed, line)
			}
		}
		if len(failed) != len(c.want) {
			t.Fatalf("-exp %s: %d failure lines, want %d:\n%s", c.exps, len(failed), len(c.want), &diag)
		}
		for i, e := range c.want {
			if !strings.HasPrefix(failed[i], "euasim: "+e+": ") || !strings.Contains(failed[i], " cell(s) failed: ") ||
				strings.Count(failed[i], e+":") != 1 {
				t.Errorf("-exp %s: failure line %q, want one naming %s once", c.exps, failed[i], e)
			}
		}
	}
}

// TestStatsFlag: -stats appends the telemetry table to stderr — covering
// scheduler decision latencies, preemptions and frequency switches — and
// leaves stdout byte-identical to a run without it.
func TestStatsFlag(t *testing.T) {
	args := []string{"-exp", "fig2", "-seeds", "1", "-horizon", "0.3", "-loads", "0.5"}
	var plainOut bytes.Buffer
	if err := run(args, &plainOut, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out, diag bytes.Buffer
	if err := run(append(args, "-stats"), &out, &diag); err != nil {
		t.Fatal(err)
	}
	if out.String() != plainOut.String() {
		t.Error("-stats changed stdout; the snapshot must go to stderr only")
	}
	text := diag.String()
	for _, want := range []string{
		"euasim: telemetry snapshot",
		"HISTOGRAM",
		"euastar_sched_decide_seconds",
		"euastar_engine_preemptions_total",
		"euastar_engine_freq_switches_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stderr missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("stderr:\n%s", text)
	}
}

// TestStatsRejectedWithRemote: -stats needs local runs to observe.
func TestStatsRejectedWithRemote(t *testing.T) {
	err := run([]string{"-exp", "fig2", "-remote", "http://127.0.0.1:1", "-stats"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-stats") {
		t.Fatalf("err = %v, want -stats rejection", err)
	}
}
