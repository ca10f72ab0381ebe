package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/euastar/euastar"
	"github.com/euastar/euastar/internal/config"
	"github.com/euastar/euastar/internal/server"
	"github.com/euastar/euastar/internal/storage"
	"github.com/euastar/euastar/internal/workload"
)

const (
	euadLoad    = 0.8
	euadHorizon = 0.5
	euadScheme  = "EUA*"
	// euadWait is the long-poll a client asks for; a job that takes
	// longer is polled again.
	euadWait = "10s"
	// euadRecycleOps is how many jobs one daemon instance serves before
	// the benchmark, between two measuring windows, drains it and starts a
	// fresh one. The daemon keeps every finished job in memory, so without
	// a recycle the peak RSS would grow with the number of ops a run
	// completes, and a faster daemon would read as a memory regression.
	euadRecycleOps = 1024
)

// euadSimulate drives an in-process euad server, with a real on-disk
// data directory, over loopback HTTP. A closed-loop client submits a
// simulate job (A1: 4 tasks with ⟨5,P⟩ bursts, load 0.8, EUA*, horizon
// 0.5 s, one core) and long-polls until it is terminal. Ops on even op
// seeds come from one tenant, ops on odd ones from another.
//
// There is one client, not two: two closed-loop clients kept both vCPUs
// of the machine the benchmark was written on nearly saturated (jobs run
// on the daemon's workers, one per vCPU), and their latency moved about
// twice as much as the host's speed did. One client leaves a vCPU to the
// HTTP handlers, the GC and the journal.
type euadSimulate struct {
	dir     string
	traced  bool
	seeds   []uint64
	docs    []json.RawMessage // tasks document per op seed
	started int               // daemons started, for fresh data directories

	d       *daemon
	client  *http.Client
	fs      *timingFS
	ids     atomic.Int64
	firstID int64 // ids issued before the live daemon started
	refused atomic.Int64

	mu       sync.Mutex
	results  []json.RawMessage // first result per op seed
	timings  []server.JobTimings
	admitUs  []float64
	counting bool               // inside the timed phase of a traced run
	base     map[string]float64 // the live daemon's /metrics when counting began
	counted  map[string]float64 // /metrics growth over the timed phase

	replicaOnce sync.Once
	replicas    []euastar.TaskSet // each document as the daemon reads it
	replicaErr  error
}

// newEuadSimulate returns the workload; its daemons store through a
// timing storage.FS, which times every fsync.
func newEuadSimulate(dir string) *euadSimulate {
	return &euadSimulate{dir: dir, fs: &timingFS{FS: storage.OS()}}
}

func (e *euadSimulate) syncTime() (time.Duration, bool) {
	return time.Duration(e.fs.total.Load()), true
}

func (e *euadSimulate) setup(seeds []uint64, traced bool) (time.Duration, error) {
	t0 := time.Now()
	e.seeds, e.traced = seeds, traced
	e.docs = make([]json.RawMessage, len(seeds))
	for k, seed := range seeds {
		ts, err := workload.A1().Synthesize(synthSource(seed), workload.Options{})
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := config.Save(&buf, ts, ""); err != nil {
			return 0, err
		}
		e.docs[k] = buf.Bytes()
	}
	synth := time.Since(t0)

	d, err := e.start()
	if err != nil {
		return 0, err
	}
	e.d = d
	e.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}
	e.results = make([]json.RawMessage, len(seeds))
	return synth, nil
}

// daemon is one in-process euad server behind a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	data   string
}

// start opens a daemon on a fresh data directory.
func (e *euadSimulate) start() (*daemon, error) {
	e.started++
	e.firstID = e.ids.Load()
	d := &daemon{data: filepath.Join(e.dir, fmt.Sprintf("euad-data-%d", e.started))}
	if err := os.RemoveAll(d.data); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: d.data, FS: e.fs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv, d.hs, d.served = srv, &http.Server{Handler: srv}, make(chan struct{})
	d.base = "http://" + ln.Addr().String()
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return d, nil
}

// stop shuts the listener, drains the server and removes its data
// directory so runs do not fill the disk.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.data); err == nil {
		err = rerr
	}
	return err
}

func (e *euadSimulate) close() error {
	if e.d == nil {
		return nil
	}
	err := e.d.stop()
	e.client.CloseIdleConnections()
	e.d = nil
	return err
}

// between replaces the daemon once it has served euadRecycleOps jobs. In
// a traced run the old daemon's /metrics growth is banked first.
func (e *euadSimulate) between() error {
	if e.ids.Load()-e.firstID < euadRecycleOps {
		return nil
	}
	if err := e.bank(); err != nil {
		return err
	}
	err := e.d.stop()
	e.client.CloseIdleConnections()
	if err != nil {
		return err
	}
	e.d, err = e.start()
	return err
}

// bank adds the live daemon's /metrics growth since counting began to the
// run's tally; the next daemon starts from zero.
func (e *euadSimulate) bank() error {
	e.mu.Lock()
	counting := e.counting
	e.mu.Unlock()
	if !counting {
		return nil
	}
	m, err := e.scrape(e.d)
	if err != nil {
		return err
	}
	e.mu.Lock()
	for k, v := range m {
		e.counted[k] += v - e.base[k]
	}
	e.base = nil
	e.mu.Unlock()
	return nil
}

var euadTenants = [2]string{"bench-a", "bench-b"}

func (e *euadSimulate) op(k int, tr *tracer) (time.Duration, any, error) {
	n := e.ids.Add(1)
	id := "op-" + strconv.FormatInt(n, 10)
	body, err := json.Marshal(server.JobSpec{
		ID: id, Kind: server.KindSimulate, Tasks: e.docs[k], Scheme: euadScheme,
		Load: euadLoad, Horizon: euadHorizon, Seed: e.seeds[k],
	})
	if err != nil {
		return 0, nil, err
	}
	return e.run(e.d, id, body, k, tr)
}

// run submits one job to daemon d and waits for its terminal status.
func (e *euadSimulate) run(dm *daemon, id string, body []byte, k int, tr *tracer) (time.Duration, any, error) {
	t0 := time.Now()
	tr.beginOp()
	sp := tr.begin(kSubmit, false, 0)
	code, raw, err := e.do(dm, http.MethodPost, "/v1/jobs", body, euadTenants[k%len(euadTenants)])
	tr.end(sp)
	if err == nil && code != http.StatusAccepted {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			e.refused.Add(1)
		}
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err != nil {
		tr.discardOp()
		return 0, nil, err
	}
	var st server.JobStatus
	sp = tr.begin(kWait, false, 0)
	for !st.Terminal() {
		code, raw, err = e.do(dm, http.MethodGet, "/v1/jobs/"+id+"?wait="+euadWait, nil, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d: %s", code, bytes.TrimSpace(raw))
		}
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		if err != nil {
			tr.discardOp()
			return 0, nil, err
		}
	}
	tr.end(sp)
	tr.endOp()
	d := time.Since(t0)

	if st.State != server.StateDone {
		return d, nil, fmt.Errorf("job %s %s: %+v", id, st.State, st.Error)
	}
	sum := sha256.Sum256(st.Result)
	dig := hex.EncodeToString(sum[:])
	e.mu.Lock()
	if e.results[k] == nil {
		e.results[k] = st.Result
	}
	if e.traced && st.Timings != nil {
		e.timings = append(e.timings, *st.Timings)
	}
	e.mu.Unlock()
	if tr != nil {
		if err := e.timeAdmission(k); err != nil {
			return d, nil, err
		}
	}
	return d, dig, nil
}

// do sends one request and reads the whole answer, so the connection is
// reused.
func (e *euadSimulate) do(dm *daemon, method, path string, body []byte, tenant string) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, dm.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// replicaSets parses each tasks document the way the daemon does.
func (e *euadSimulate) replicaSets() ([]euastar.TaskSet, error) {
	e.replicaOnce.Do(func() {
		fmax := euastar.PowerNowK6().Max()
		for _, doc := range e.docs {
			ts, err := config.Load(bytes.NewReader(doc))
			if err != nil {
				e.replicaErr = err
				return
			}
			e.replicas = append(e.replicas, ts.ScaleToLoad(euadLoad, fmax))
		}
	})
	return e.replicas, e.replicaErr
}

// timeAdmission times the admission analysis the submit handler runs,
// on the same set: the call inside the handler cannot be wrapped from
// outside. It runs after the op, so it adds to no op's latency.
func (e *euadSimulate) timeAdmission(k int) error {
	sets, err := e.replicaSets()
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, err = euastar.Admit(sets[k], euastar.PowerNowK6(), euadScheme)
	us := float64(time.Since(t0)) / 1e3
	e.mu.Lock()
	e.admitUs = append(e.admitUs, us)
	e.mu.Unlock()
	return err
}

// phase tallies the daemons' /metrics growth over the timed phase of a
// traced run and restarts the job-timing and storage tallies.
func (e *euadSimulate) phase(start bool) error {
	if !e.traced {
		return nil
	}
	if !start {
		err := e.bank()
		e.mu.Lock()
		e.counting = false
		e.mu.Unlock()
		return err
	}
	m, err := e.scrape(e.d)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.counting, e.base, e.counted = true, m, map[string]float64{}
	e.timings, e.admitUs = nil, nil
	e.mu.Unlock()
	e.fs.reset()
	return nil
}

// scrape reads a daemon's /metrics and sums each family across its label
// sets.
func (e *euadSimulate) scrape(dm *daemon) (map[string]float64, error) {
	code, raw, err := e.do(dm, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// verify compares each op seed's result with an in-process simulation
// of the same spec: the document parsed as the daemon parses it, scaled
// to the load, run by the same scheduler on the same platform.
func (e *euadSimulate) verify() map[int]error {
	bad := map[int]error{}
	sets, err := e.replicaSets()
	for k, raw := range e.results {
		if raw == nil {
			continue
		}
		if err != nil {
			bad[k] = err
			continue
		}
		res, serr := euastar.Simulate(euastar.SimConfig{
			Tasks: sets[k], Scheduler: euastar.NewEUA(), Horizon: euadHorizon,
			Seed: e.seeds[k], AbortAtTermination: true,
		})
		if serr != nil {
			bad[k] = serr
			continue
		}
		if cerr := sameResult(raw, euastar.Analyze(res)); cerr != nil {
			bad[k] = cerr
		}
	}
	return bad
}

// resultHead is the part of a simulate job's result the in-process
// replica is compared on, besides the per-task counts.
type resultHead struct {
	Scheduler      string  `json:"scheduler"`
	AccruedUtility float64 `json:"accrued_utility"`
	MaxUtility     float64 `json:"max_possible_utility"`
	TotalEnergy    float64 `json:"total_energy"`
	BusyTime       float64 `json:"busy_time"`
	EndTime        float64 `json:"end_time"`
	Switches       int     `json:"switches"`
	Released       int     `json:"released"`
	Completed      int     `json:"completed"`
	Aborted        int     `json:"aborted"`
	CriticalMisses int     `json:"critical_misses"`
}

type resultTask struct {
	TaskID    int `json:"task_id"`
	Released  int `json:"released"`
	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`
}

func sameResult(raw json.RawMessage, rep *euastar.Report) error {
	var got struct {
		resultHead
		PerTask []resultTask `json:"per_task"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	want := resultHead{
		Scheduler: rep.Scheduler, AccruedUtility: rep.AccruedUtility, MaxUtility: rep.MaxPossibleUtility,
		TotalEnergy: rep.TotalEnergy, BusyTime: rep.BusyTime, EndTime: rep.EndTime,
		Switches: rep.Switches, Released: rep.Released, Completed: rep.Completed,
		Aborted: rep.Aborted, CriticalMisses: rep.CriticalMisses,
	}
	if err := checkResolved(rep); err != nil {
		return err
	}
	if got.resultHead != want {
		return fmt.Errorf("daemon result %+v, in-process %+v", got.resultHead, want)
	}
	if len(got.PerTask) != len(rep.PerTask) {
		return fmt.Errorf("daemon reports %d tasks, in-process %d", len(got.PerTask), len(rep.PerTask))
	}
	for i, pt := range rep.PerTask {
		w := resultTask{pt.Task.ID, pt.Released, pt.Completed, pt.Aborted}
		if got.PerTask[i] != w {
			return fmt.Errorf("task %d: daemon %+v, in-process %+v", pt.Task.ID, got.PerTask[i], w)
		}
	}
	return nil
}

func (e *euadSimulate) layers(info runInfo, m map[string]float64) error {
	if e.counted == nil {
		return errors.New("euad-simulate: /metrics was not scraped around the timed phase")
	}
	delta := func(name string) float64 { return e.counted[name] }
	ops := float64(info.ops)
	calls := delta("euastar_sched_decide_seconds_count")
	m["engine.events_per_op"] = delta("euastar_engine_events_total") / ops
	m["sched.calls_per_op"] = calls / ops
	if calls > 0 {
		m["sched.decide_us_per_call"] = delta("euastar_sched_decide_seconds_sum") / calls * 1e6
		m["sched.ready_per_call"] = delta("euastar_sched_ready_jobs_sum") / delta("euastar_sched_ready_jobs_count")
		m["sched.feas_iters_per_call"] = delta("euastar_sched_feasibility_iterations_total") / calls
	}
	// Every job runs EUA*, so all Decide time is EUA*'s.
	m["sched.eua_share"] = delta("euastar_sched_decide_seconds_sum") / info.opSeconds

	e.mu.Lock()
	var run, render, queue []float64
	for _, t := range e.timings {
		run = append(run, t.RunSeconds*1e3)
		render = append(render, t.RenderSeconds*1e3)
		queue = append(queue, t.QueueWaitSeconds*1e3)
	}
	admit := median(e.admitUs)
	e.mu.Unlock()
	m["server.run_ms_p50"] = median(run)
	m["server.render_ms_p50"] = median(render)
	m["tenancy.queue_wait_ms_p50"] = median(queue)
	m["server.refused_per_op"] = float64(e.refused.Load()) / ops
	m["admission.analyze_us_per_call"] = admit

	syncMs, written := e.fs.tally()
	m["jobstore.syncs_per_op"] = float64(len(syncMs)) / ops
	m["jobstore.sync_ms_p50"] = median(syncMs)
	m["jobstore.bytes_per_op"] = float64(written) / ops
	return nil
}

func (*euadSimulate) passesPerWindow() int { return 8 }

func (e *euadSimulate) decodeGolden(raw json.RawMessage) ([]any, error) {
	return decodeDigests[string](raw)
}

// timingFS wraps the daemon's storage to time every fsync and count the
// bytes written: the journal and checkpoint layer's cost, seen from
// below it.
type timingFS struct {
	storage.FS
	total   atomic.Int64 // ns spent in fsync since the workload began
	mu      sync.Mutex
	syncMs  []float64 // fsync times since the last reset
	written int64
}

func (f *timingFS) reset() {
	f.mu.Lock()
	f.syncMs, f.written = nil, 0
	f.mu.Unlock()
}

func (f *timingFS) tally() (syncMs []float64, written int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncMs, f.written
}

func (f *timingFS) note(d time.Duration, n int) {
	if d >= 0 {
		f.total.Add(int64(d))
	}
	f.mu.Lock()
	if d >= 0 {
		f.syncMs = append(f.syncMs, float64(d)/1e6)
	}
	f.written += int64(n)
	f.mu.Unlock()
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{file, f}, nil
}

func (f *timingFS) CreateTemp(dir, pattern string) (storage.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{file, f}, nil
}

func (f *timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.note(time.Since(t0), 0)
	return err
}

type timingFile struct {
	storage.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.note(-1, n)
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.note(time.Since(t0), 0)
	return err
}
