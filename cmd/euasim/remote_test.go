package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/euastar/euastar/internal/server"
)

// startRemote stands up a real in-process euad core behind httptest;
// cfg carries the daemon's own defaults (the zero value: none).
func startRemote(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	cfg.DataDir, cfg.Workers, cfg.Logf = t.TempDir(), 2, t.Logf
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteMatchesLocalOutput is the -remote contract: for every
// registered sweep, uniprocessor and multicore, the daemon-rendered tables
// and -json documents must be byte-identical to running the same sweep
// locally, whatever the daemon's own -cores/-partition defaults.
func TestRemoteMatchesLocalOutput(t *testing.T) {
	sweeps := []string{"-exp", experimentNames(true, ","), "-seeds", "1", "-horizon", "0.1", "-loads", "0.4,1.0"}
	with := func(extra ...string) []string { return append(append([]string{}, sweeps...), extra...) }
	for _, c := range []struct {
		name   string
		daemon server.Config
		args   []string
	}{
		{"uniprocessor", server.Config{}, sweeps},
		{"cores2-wf", server.Config{}, with("-cores", "2", "-partition", "wf")},
		// speedup reads -partition at every core count.
		{"speedup-wf", server.Config{}, []string{"-exp", "speedup", "-seeds", "1", "-horizon", "0.1", "-loads", "0.4,1.6", "-partition", "wf"}},
		// A run without -cores is uniprocessor, and one without -partition
		// first-fit, on a daemon whose defaults say otherwise.
		{"daemon-defaults", server.Config{DefaultCores: 2, DefaultPartition: "wf"}, sweeps},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := startRemote(t, c.daemon)
			args, jobID := c.args, "rt-"+c.name
			var local, remote bytes.Buffer
			if err := run(args, &local, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := run(append(args, "-remote", ts.URL, "-job-id", jobID), &remote, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(local.Bytes(), remote.Bytes()) {
				t.Fatalf("remote stdout differs from local:\n--- local ---\n%s\n--- remote ---\n%s", &local, &remote)
			}

			// The -json documents must round-trip through the daemon
			// identically too (this exercises the Fig3Row and SpeedupRow
			// Unmarshal/Marshal symmetry), and the sweeps without one must
			// write none remotely either.
			localJSON := filepath.Join(t.TempDir(), "out.json")
			remoteJSON := filepath.Join(t.TempDir(), "out.json")
			if err := run(append(args, "-json", localJSON), io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			// Same -job-id: the daemon replays the already-computed results.
			if err := run(append(args, "-remote", ts.URL, "-job-id", jobID, "-json", remoteJSON), io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			a, err := os.ReadFile(localJSON)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(remoteJSON)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("remote -json differs from local:\n--- local ---\n%s\n--- remote ---\n%s", a, b)
			}
		})
	}
}

// TestRemoteFailedJobSurfaces checks that a job failing server-side
// validation comes back as a structured, non-zero-exit error.
func TestRemoteFailedJobSurfaces(t *testing.T) {
	ts := startRemote(t, server.Config{})
	err := run([]string{"-exp", "fig2", "-seeds", "1", "-horizon", "0.1", "-loads", "0.4",
		"-faults", "not-a-plan", "-remote", ts.URL, "-job-id", "bad"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("expected structured invalid error, got %v", err)
	}
}

// TestRemoteSignalAbandonsWait: a signal already pending when a -remote
// run starts is taken before anything is sent. euasim says it abandons
// the wait, names the daemon, and fails without contacting it.
func TestRemoteSignalAbandonsWait(t *testing.T) {
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request expected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	sigs := make(chan os.Signal, 1)
	sigs <- os.Interrupt
	var diag bytes.Buffer
	err := runWithSignals([]string{"-exp", "fig2", "-seeds", "1", "-horizon", "0.1", "-loads", "0.4",
		"-remote", ts.URL}, io.Discard, &diag, sigs)
	if err == nil {
		t.Fatal("abandoned remote run reported success")
	}
	want := "euasim: received interrupt, abandoning remote wait (jobs keep running on " + ts.URL + ")\n"
	if !strings.Contains(diag.String(), want) {
		t.Fatalf("diag = %q, want the line %q", diag.String(), want)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the daemon got %d requests after the signal", n)
	}
}

// TestRemoteFlagValidation: flags that only act on a local run, and
// experiments without cells, are rejected before any request is sent, so
// the address is never contacted.
func TestRemoteFlagValidation(t *testing.T) {
	const addr = "http://127.0.0.1:1"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-chart"}, "-chart"},
		{[]string{"-checkpoint", "c.json"}, "-checkpoint"},
		{[]string{"-retries", "1"}, "-retries"},
		{[]string{"-timeout", "1s"}, "-timeout"},
		{[]string{"-oracles"}, "-oracles"},
		{[]string{"-admission-bench", "a.json"}, "-admission-bench"},
		{[]string{"-gaps-bench", "g.json"}, "-gaps-bench"},
	} {
		args := append([]string{"-remote", addr, "-exp", "fig2"}, c.args...)
		if err := run(args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %v, want one naming %s", args, err, c.want)
		}
	}
	for _, exp := range []string{"table1", "all"} {
		args := []string{"-remote", addr, "-exp", exp}
		if err := run(args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "cannot run remotely") {
			t.Errorf("args %v: error %v, want a cannot-run-remotely error", args, err)
		}
	}
}
