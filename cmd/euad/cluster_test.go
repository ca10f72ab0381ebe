package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/client"
	"github.com/euastar/euastar/internal/server"
)

// clusterSweepSpec is the chaos workload: a faults-enabled fig2 sweep
// long enough (~seconds) that killing workers reliably lands mid-sweep.
func clusterSweepSpec(id string) server.JobSpec {
	return server.JobSpec{
		ID:         id,
		Kind:       server.KindSweep,
		Experiment: "fig2",
		Seeds:      3,
		Horizon:    5,
		Faults:     "seed=7,overrun=0.1,sticky=0.05",
	}
}

// scrapeMetric reads one un-labeled series from a daemon's /metrics.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindSubmatch(data)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return v
}

// waitMetric polls a metric until ok accepts its value.
func waitMetric(t *testing.T, base, name string, ok func(float64) bool, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		v := scrapeMetric(t, base, name)
		if ok(v) {
			return
		}
		if time.Now().After(stop) {
			t.Fatalf("%s still %v after %v", name, v, deadline)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterChaosSoak is the distribution acceptance test: a 4-process
// local cluster (coordinator + 3 workers) runs a faults-enabled sweep
// while one worker is SIGKILLed and another hard-stalled (SIGSTOP)
// mid-sweep. The merged result must be byte-identical to a single-node
// golden run, the resumed zombie's late commit must fence as stale, and
// the coordinator's accounting must balance: every granted lease
// resolves exactly once (granted = completed + expired + stolen).
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak is multi-second; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Golden: the same sweep on a plain single daemon.
	golden := startDaemon(t, t.TempDir())
	start := time.Now()
	refSt, err := client.New(golden.base).Run(ctx, clusterSweepSpec("cluster-sweep"))
	if err != nil {
		t.Fatalf("golden run: %v; logs:\n%s", err, golden.logs)
	}
	refDur := time.Since(start)
	if refSt.State != server.StateDone {
		t.Fatalf("golden job: %+v", refSt)
	}
	if code := golden.stop(t); code != 0 {
		t.Fatalf("golden daemon exit code %d", code)
	}

	// The cluster: short leases so revocation and reassignment are
	// exercised within the test budget. An idle worker asks for a lease
	// once per heartbeat, which the coordinator sets to a quarter of the
	// TTL.
	const leaseTTL = 2 * time.Second
	idlePoll := leaseTTL / 4
	coord := startDaemon(t, t.TempDir(), "-coordinator", "-lease-ttl", leaseTTL.String())
	defer coord.cmd.Process.Kill()
	var workers [3]*daemon
	for i := range workers {
		workers[i] = startDaemon(t, t.TempDir(),
			"-join", coord.base, "-worker-id", fmt.Sprintf("w%d", i+1), "-cells", "1")
		defer workers[i].cmd.Process.Kill()
	}
	waitMetric(t, coord.base, "euad_coord_workers_live", func(v float64) bool { return v >= 3 }, 15*time.Second)

	if _, err := client.New(coord.base).Submit(ctx, clusterSweepSpec("cluster-sweep")); err != nil {
		t.Fatalf("cluster submit: %v; logs:\n%s", err, coord.logs)
	}
	// Let the sweep get airborne, then take two of the three workers out:
	// one vanishes without a trace, one freezes while holding leases. A
	// busy worker asks for its next lease as soon as it commits, so once
	// every worker has had an idle-poll interval (plus slack) to pick up
	// its first lease, each holds one for all but a moment.
	time.Sleep(max(refDur/8, idlePoll*3/2))
	if err := workers[0].cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup
		t.Fatal(err)
	}
	workers[0].cmd.Wait()
	if err := syscall.Kill(workers[1].cmd.Process.Pid, syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	st, err := client.New(coord.base).Wait(ctx, "cluster-sweep")
	if err != nil {
		t.Fatalf("cluster wait: %v; logs:\n%s", err, coord.logs)
	}
	if st.State != server.StateDone {
		t.Fatalf("cluster job: %+v; logs:\n%s", st, coord.logs)
	}
	if !bytes.Equal(st.Result, refSt.Result) {
		t.Fatalf("cluster result differs from single-node golden:\ngolden: %.300s\ncluster: %.300s", refSt.Result, st.Result)
	}

	// Wake the frozen worker: a zombie resuming after a partition. Its
	// leases expired long ago; whatever it tries to commit must fence as
	// a stale epoch, never land in a sweep. Wake it only once the
	// coordinator has declared it dead (only w3 still live): a worker
	// still registered learns of the revocation from its first
	// heartbeat and rightly drops the cell without committing.
	waitMetric(t, coord.base, "euad_coord_workers_live", func(v float64) bool { return v <= 1 }, 10*leaseTTL)
	if err := syscall.Kill(workers[1].cmd.Process.Pid, syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	staleDeadline := time.Now().Add(20 * time.Second)
	for scrapeMetric(t, coord.base, "euad_coord_commits_stale_total") < 1 {
		if time.Now().After(staleDeadline) {
			t.Fatalf("zombie worker's late commit never arrived (or was not fenced); logs:\n%s", coord.logs)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Accounting at quiescence: every lease resolved exactly once, and
	// the sweep really did travel through the cluster.
	granted := scrapeMetric(t, coord.base, "euad_coord_leases_granted_total")
	completed := scrapeMetric(t, coord.base, "euad_coord_leases_completed_total")
	expired := scrapeMetric(t, coord.base, "euad_coord_leases_expired_total")
	stolen := scrapeMetric(t, coord.base, "euad_coord_leases_stolen_total")
	if granted != completed+expired+stolen {
		t.Fatalf("lease accounting broken: granted=%v completed=%v expired=%v stolen=%v\nlogs:\n%s",
			granted, completed, expired, stolen, coord.logs)
	}
	if granted < 27 { // 9 loads × 3 seeds: every cell was granted at least once
		t.Fatalf("only %v leases granted for a 27-cell sweep", granted)
	}
	if expired+stolen < 1 {
		t.Fatalf("chaos produced no revocations (expired=%v stolen=%v): the faults did not land mid-sweep", expired, stolen)
	}

	// The survivors shut down clean.
	if code := workers[2].stop(t); code != 0 {
		t.Fatalf("surviving worker exit code %d; logs:\n%s", code, workers[2].logs)
	}
	if code := coord.stop(t); code != 0 {
		t.Fatalf("coordinator exit code %d; logs:\n%s", code, coord.logs)
	}
}
