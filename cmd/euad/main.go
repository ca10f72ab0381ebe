// Command euad is the EUA* scheduling daemon: a long-running HTTP/JSON
// service that accepts schedulability analyses, single simulations and
// experiment sweeps, runs them on a bounded worker pool, and journals
// every job so a crash mid-sweep resumes on restart (see DESIGN.md §9).
//
// Usage:
//
//	euad -addr 127.0.0.1:9176 -data /var/lib/euad
//
// SIGTERM or SIGINT triggers a graceful drain: admission stops (503),
// in-flight jobs finish, and the process exits 0. If the drain budget
// expires first, running jobs are stopped cooperatively and will resume
// from their checkpoints on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/euastar/euastar/internal/client"
	"github.com/euastar/euastar/internal/coordinator"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/server"
	"github.com/euastar/euastar/internal/storage"
	"github.com/euastar/euastar/internal/tenancy"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("euad", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9176", "listen address (host:port; port 0 picks a free port)")
	data := fs.String("data", "euad-data", "data directory for the job journal and sweep checkpoints (empty disables durability)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	simWorkers := fs.Int("sim-workers", 1, "simulation workers per sweep job")
	queue := fs.Int("queue", 64, "per-tenant admission queue depth; beyond it submissions get 429")
	tenantWeights := fs.String("tenant-weights", "", "WDRR dequeue weights per tenant, e.g. team-a=1,team-b=4 (unlisted tenants weigh 1)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant submission quota in jobs/second (0 disables the quota)")
	tenantBurst := fs.Int("tenant-burst", 1, "per-tenant submission quota burst (token bucket capacity)")
	tenantInflight := fs.Int("tenant-inflight", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")
	maxTenants := fs.Int("max-tenants", 64, "distinct tenants tracked before further tenants are refused")
	diskLow := fs.Float64("disk-low-watermark", 0, "free-space fraction of the data dir below which the daemon degrades: analyze only, durable work refused with 503 (0 disables)")
	storageFaults := fs.String("storage-faults", "", "deterministic storage fault plan for chaos testing, e.g. seed=7,after=8,write-err=0.1,sync-err=0.05")
	breakerThreshold := fs.Int("breaker-threshold", 5, "worker-mode circuit breaker: consecutive dead-peer failures before it opens")
	breakerCooldown := fs.Duration("breaker-cooldown", 2*time.Second, "worker-mode circuit breaker: cooldown before a half-open probe")
	cores := fs.Int("cores", 0, "default DVS core count for sweep/simulate jobs that do not set cores (0 = uniprocessor)")
	placement := fs.String("partition", "", "default placement policy for multicore jobs: ff|wf|global (empty = ff)")
	defTimeout := fs.Duration("timeout", 2*time.Minute, "default per-job wall-clock budget")
	maxTimeout := fs.Duration("max-timeout", 10*time.Minute, "ceiling on any job's wall-clock budget")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs")
	coordMode := fs.Bool("coordinator", false, "serve as a sweep coordinator: shard sweep jobs across joined worker daemons")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "coordinator cell lease TTL (heartbeats renew; silence past it reassigns the cell)")
	heartbeat := fs.Duration("heartbeat", 0, "coordinator heartbeat interval for workers (0 = lease-ttl/4)")
	join := fs.String("join", "", "coordinator URL to join as a worker (e.g. http://127.0.0.1:9176)")
	workerID := fs.String("worker-id", "", "stable worker identity when joining (default host-pid)")
	cells := fs.Int("cells", 0, "concurrent sweep cells when joining as a worker (0 = GOMAXPROCS)")
	fs.Parse(args)

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	weights, err := tenancy.ParseWeights(*tenantWeights)
	if err != nil {
		logf("euad: %v", err)
		return 1
	}
	if *cores < 0 {
		logf("euad: -cores must be non-negative, got %d", *cores)
		return 1
	}
	if *placement != "" && partition.CheckPlacement(*placement) != nil {
		logf("euad: -partition must be ff, wf or global, got %q", *placement)
		return 1
	}
	plan, err := storage.ParseFaultPlan(*storageFaults)
	if err != nil {
		logf("euad: %v", err)
		return 1
	}
	scfg := server.Config{
		DataDir:           *data,
		Workers:           *workers,
		SimWorkers:        *simWorkers,
		QueueDepth:        *queue,
		TenantWeights:     weights,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		TenantMaxInFlight: *tenantInflight,
		MaxTenants:        *maxTenants,
		DiskLowWatermark:  *diskLow,
		DefaultTimeout:    *defTimeout,
		MaxTimeout:        *maxTimeout,
		DefaultCores:      *cores,
		DefaultPartition:  *placement,
		Logf:              logf,
	}
	if plan != nil {
		logf("euad: storage fault injection active: %s", plan)
		scfg.FS = storage.NewFaultFS(storage.OS(), plan)
	}
	if *coordMode {
		scfg.Cluster = &coordinator.Config{LeaseTTL: *leaseTTL, Heartbeat: *heartbeat}
	}
	srv, err := server.New(scfg)
	if err != nil {
		logf("euad: %v", err)
		return 1
	}

	// Catch shutdown signals before announcing the address: a SIGTERM that
	// arrives as soon as the daemon answers must drain it, not kill it.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM, syscall.SIGINT)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("euad: %v", err)
		return 1
	}
	// The resolved address (port 0 → kernel-assigned) goes to stderr so
	// wrappers and tests can discover where to connect.
	logf("euad: listening on http://%s", ln.Addr())

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Joining a cluster runs the worker lease loop alongside the local
	// service: this daemon keeps serving its own API while computing
	// sweep cells for the coordinator.
	workerCtx, stopWorker := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	close(workerDone)
	if *join != "" {
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		cl := client.New(*join)
		cl.Breaker = client.NewBreaker(*breakerThreshold, *breakerCooldown)
		cl.Breaker.OnChange(func(from, to string) {
			logf("euad: worker: coordinator circuit breaker %s -> %s", from, to)
		})
		w := &client.Worker{Client: cl, ID: id, Slots: *cells, Logf: logf}
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			if err := w.Run(workerCtx); err != nil && workerCtx.Err() == nil {
				logf("euad: worker: %v", err)
			}
		}()
	}
	defer stopWorker()

	select {
	case sig := <-sigC:
		stopWorker()
		<-workerDone
		logf("euad: %v: draining (budget %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			logf("euad: drain: %v", err)
		}
		// Jobs are settled and journaled; now stop serving. Long-polls
		// already woke up when their jobs finished, so this is quick.
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		httpSrv.Shutdown(shutCtx)
		logf("euad: drained, exiting")
		return 0
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logf("euad: serve: %v", err)
			return 1
		}
		return 0
	}
}
