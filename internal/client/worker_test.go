package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/coordinator"
	"github.com/euastar/euastar/internal/experiment"
)

// TestRunLease drives one leased fig2 cell through runLease against a
// commit endpoint that records every commit it receives. A cell revoked
// through cancelLease, or stopped by the worker's own shutdown, is
// dropped without a commit; a cell left to finish is committed exactly
// once, with the unit its plan computes.
func TestRunLease(t *testing.T) {
	long := coordinator.SweepSpec{Experiment: "fig2", Loads: []float64{1.5}, Seeds: 1, Horizon: 100}
	short := coordinator.SweepSpec{Experiment: "fig2", Loads: []float64{1.5}, Seeds: 1, Horizon: 0.1}
	for _, tc := range []struct {
		name string
		spec coordinator.SweepSpec
		// stop ends the running cell; nil lets it finish.
		stop func(w *Worker, ref coordinator.LeaseRef, cancelWorker context.CancelFunc)
	}{
		{"revoked", long, func(w *Worker, ref coordinator.LeaseRef, _ context.CancelFunc) { w.cancelLease(ref) }},
		{"worker stopped", long, func(_ *Worker, _ coordinator.LeaseRef, cancelWorker context.CancelFunc) { cancelWorker() }},
		{"finished", short, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu      sync.Mutex
				commits []coordinator.CommitRequest
			)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/cluster/commit" {
					http.NotFound(w, r)
					return
				}
				var req coordinator.CommitRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				commits = append(commits, req)
				mu.Unlock()
				json.NewEncoder(w).Encode(coordinator.CommitResponse{})
			}))
			defer ts.Close()

			plan, err := tc.spec.Plan()
			if err != nil {
				t.Fatal(err)
			}
			lease := coordinator.LeaseResponse{Sweep: "sw", Spec: tc.spec, Fingerprint: plan.Fingerprint(), Cell: 0, Epoch: 7}
			ref := coordinator.LeaseRef{Sweep: lease.Sweep, Cell: lease.Cell, Epoch: lease.Epoch}
			w := &Worker{
				Client: fastClient(ts.URL), ID: "w1", Logf: t.Logf,
				active: make(map[coordinator.LeaseRef]func()),
				plans:  make(map[string]*experiment.CellPlan),
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				w.runLease(ctx, lease)
			}()
			if tc.stop != nil {
				deadline := time.Now().Add(10 * time.Second)
				for {
					w.mu.Lock()
					_, running := w.active[ref]
					w.mu.Unlock()
					if running {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the lease never became active")
					}
					time.Sleep(time.Millisecond)
				}
				tc.stop(w, ref, cancel)
			}
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("runLease did not return")
			}

			w.mu.Lock()
			left := len(w.active)
			w.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d leases still active after runLease returned", left)
			}
			mu.Lock()
			defer mu.Unlock()
			if tc.stop != nil {
				if len(commits) != 0 {
					t.Fatalf("stopped cell posted %d commits: %+v", len(commits), commits)
				}
				return
			}
			if len(commits) != 1 {
				t.Fatalf("finished cell posted %d commits, want 1", len(commits))
			}
			want, err := plan.Run(lease.Cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := commits[0]
			if got.Error != "" || !bytes.Equal(got.Unit, want) {
				t.Fatalf("commit unit %s (error %q), want %s", got.Unit, got.Error, want)
			}
			if got.Worker != w.ID || got.Sweep != lease.Sweep || got.Fingerprint != lease.Fingerprint ||
				got.Cell != lease.Cell || got.Epoch != lease.Epoch {
				t.Fatalf("commit addressed %+v, want the lease %+v", got, lease)
			}
		})
	}
}
