package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/client"
	"github.com/euastar/euastar/internal/coordinator"
	"github.com/euastar/euastar/internal/server"
	"github.com/euastar/euastar/internal/storage"
)

// clusterSpec is a small faults-enabled sweep: 2 loads × 2 seeds.
func clusterSpec(id string) server.JobSpec {
	return server.JobSpec{
		ID:         id,
		Kind:       server.KindSweep,
		Experiment: "fig2",
		Loads:      []float64{0.4, 1.0},
		Seeds:      2,
		Horizon:    0.3,
		Faults:     "seed=7,overrun=0.1,sticky=0.05",
	}
}

// runSweepOn submits the spec and returns the terminal status.
func runSweepOn(t *testing.T, url string, spec server.JobSpec) *server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := client.New(url).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job %s: state %s, error %v", spec.ID, st.State, st.Error)
	}
	return st
}

// metric scrapes one un-labeled series from /metrics.
func metric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
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

// TestClusterSweepMatchesLocal runs the same sweeps on a plain daemon and
// on a coordinator whose cells are computed by an in-process worker, and
// requires byte-identical results — the distributed merge must be
// indistinguishable from a single-node run. The sweeps cover a
// faults-enabled fig2, fig3 with its bounds set in the spec, and
// threshold, whose grid has one dimension (schemes).
func TestClusterSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is seconds long")
	}
	// Golden: a plain single daemon.
	golden, err := server.New(server.Config{Workers: 2, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	goldenTS := httptest.NewServer(golden)
	defer goldenTS.Close()

	// Cluster: a coordinator daemon plus one joined worker.
	coord, err := server.New(server.Config{
		Workers:    2,
		SimWorkers: 2,
		Logf:       t.Logf,
		Cluster:    &coordinator.Config{LeaseTTL: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordTS := httptest.NewServer(coord)
	defer coordTS.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &client.Worker{Client: client.New(coordTS.URL), ID: "w1", Slots: 2, Logf: t.Logf}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, coordTS.URL, "euad_coord_workers_live") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, c := range []struct {
		spec  server.JobSpec
		cells float64
	}{
		// cells: loads × seeds.
		{clusterSpec("fig2"), 4},
		// cells: loads × bounds × seeds.
		{server.JobSpec{ID: "fig3", Kind: server.KindSweep, Experiment: "fig3", Loads: []float64{0.4, 1.0}, Seeds: 2, Horizon: 0.3, Bounds: []int{1, 3}}, 8},
		// cells: one per scheme.
		{server.JobSpec{ID: "threshold", Kind: server.KindSweep, Experiment: "threshold", Seeds: 1, Horizon: 0.1}, 7},
	} {
		spec := c.spec
		want := runSweepOn(t, goldenTS.URL, spec)
		before := metric(t, coordTS.URL, "euad_coord_leases_completed_total")
		got := runSweepOn(t, coordTS.URL, spec)
		if !bytes.Equal(got.Result, want.Result) {
			t.Fatalf("%s: clustered result differs from single-node golden:\ngolden: %s\ncluster: %s", spec.Experiment, want.Result, got.Result)
		}
		var res server.SweepResult
		if err := json.Unmarshal(got.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Text == "" {
			t.Fatalf("%s: rendered text missing", spec.Experiment)
		}
		// Every cell must have traveled through the cluster: a cell the
		// worker did not commit was computed on the coordinator.
		if got := metric(t, coordTS.URL, "euad_coord_leases_completed_total") - before; got != c.cells {
			t.Fatalf("%s: %v of %v cells completed on the worker; the sweep did not fully distribute", spec.Experiment, got, c.cells)
		}
	}

	// The lease accounting must balance: every grant resolved exactly once.
	granted := metric(t, coordTS.URL, "euad_coord_leases_granted_total")
	completed := metric(t, coordTS.URL, "euad_coord_leases_completed_total")
	expired := metric(t, coordTS.URL, "euad_coord_leases_expired_total")
	stolen := metric(t, coordTS.URL, "euad_coord_leases_stolen_total")
	if granted != completed+expired+stolen {
		t.Fatalf("lease accounting broken: granted=%v completed=%v expired=%v stolen=%v",
			granted, completed, expired, stolen)
	}
	cancel()
	<-workerDone
}

// TestCoordinatorWithoutWorkersCompletesLocally: coordinator mode with
// an empty cluster degrades to a plain daemon, bit-identically.
func TestCoordinatorWithoutWorkersCompletesLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds long")
	}
	golden, err := server.New(server.Config{Workers: 2, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	goldenTS := httptest.NewServer(golden)
	defer goldenTS.Close()
	want := runSweepOn(t, goldenTS.URL, clusterSpec("golden"))

	coord, err := server.New(server.Config{
		Workers:    2,
		SimWorkers: 2,
		Cluster:    &coordinator.Config{LeaseTTL: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordTS := httptest.NewServer(coord)
	defer coordTS.Close()

	start := time.Now()
	got := runSweepOn(t, coordTS.URL, clusterSpec("lonely"))
	if !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("workerless coordinator result differs from golden")
	}
	if d := time.Since(start); d > time.Minute {
		t.Fatalf("workerless coordinator took %v", d)
	}
	if granted := metric(t, coordTS.URL, "euad_coord_leases_granted_total"); granted != 0 {
		t.Fatalf("%v leases granted with no workers", granted)
	}
}

// TestCoordinatorManifestThroughServerFS: a coordinator-mode daemon
// writes its lease manifest through the server's storage.FS, so the
// manifest gets the same atomic replace and directory sync as the
// journal and checkpoints, and sits under -storage-faults.
func TestCoordinatorManifestThroughServerFS(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "leases.manifest")
	var (
		mu  sync.Mutex
		ops []string
	)
	trace := &storage.TraceFS{Inner: storage.OS(), OnOp: func(op, path string) {
		if path == manifest || path == dir {
			mu.Lock()
			ops = append(ops, op+" "+filepath.Base(path))
			mu.Unlock()
		}
	}}
	coord, err := server.New(server.Config{
		DataDir: dir,
		FS:      trace,
		Workers: 1,
		Logf:    t.Logf,
		Cluster: &coordinator.Config{LeaseTTL: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordTS := httptest.NewServer(coord)
	defer coordTS.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &client.Worker{Client: client.New(coordTS.URL), ID: "w1", Slots: 1, Logf: t.Logf}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, coordTS.URL, "euad_coord_workers_live") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	runSweepOn(t, coordTS.URL, server.JobSpec{ID: "m", Kind: server.KindSweep, Experiment: "fig2", Loads: []float64{0.5}, Seeds: 1, Horizon: 0.1})
	cancel()
	<-workerDone
	if granted := metric(t, coordTS.URL, "euad_coord_leases_granted_total"); granted < 1 {
		t.Fatal("no lease granted, so no manifest save to observe")
	}

	mu.Lock()
	defer mu.Unlock()
	renamed := slices.Index(ops, "rename leases.manifest")
	if renamed < 0 || !slices.Contains(ops[renamed:], "syncdir "+filepath.Base(dir)) {
		t.Fatalf("manifest not replaced through the server's FS with a directory sync: %v", ops)
	}
	m, err := coordinator.LoadManifest(manifest)
	if err != nil || m.MaxEpoch < 1 {
		t.Fatalf("manifest on disk: %+v, %v", m, err)
	}
}
