package task

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

func validTask() *Task {
	return &Task{
		ID:      1,
		Name:    "tracker",
		Arrival: uam.Spec{A: 2, P: 0.05},
		TUF:     tuf.NewStep(10, 0.05),
		Demand:  Demand{Mean: 1e6, Variance: 1e6},
		Req:     Requirement{Nu: 1, Rho: 0.96},
	}
}

func TestRequirementValidate(t *testing.T) {
	cases := []struct {
		r  Requirement
		ok bool
	}{
		{Requirement{1, 0.96}, true},
		{Requirement{0.3, 0.9}, true},
		{Requirement{0.3, 0}, true},
		{Requirement{0, 0.9}, false},
		{Requirement{1.2, 0.9}, false},
		{Requirement{0.5, 1}, false},
		{Requirement{0.5, -0.1}, false},
	}
	for _, c := range cases {
		if err := c.r.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: err=%v, want ok=%v", c.r, err, c.ok)
		}
	}
}

func TestDemandValidate(t *testing.T) {
	cases := []struct {
		d  Demand
		ok bool
	}{
		{Demand{1e6, 1e6}, true},
		{Demand{1e6, 0}, true},
		{Demand{0, 1}, false},
		{Demand{-1, 1}, false},
		{Demand{1, -1}, false},
		{Demand{math.NaN(), 1}, false},
		{Demand{1, math.Inf(1)}, false},
	}
	for _, c := range cases {
		if err := c.d.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: err=%v, want ok=%v", c.d, err, c.ok)
		}
	}
}

func TestDemandScale(t *testing.T) {
	d := Demand{Mean: 100, Variance: 9}
	s := d.Scale(3)
	if s.Mean != 300 || s.Variance != 81 {
		t.Fatalf("scaled = %+v", s)
	}
}

func TestDemandScalePreservesAllocationProportion(t *testing.T) {
	// c = E + sqrt(rho Var/(1-rho)) scales linearly with k when Var scales
	// with k² — this is what makes load linear in k.
	tk := validTask()
	c0 := tk.CycleAllocation()
	tk2 := *tk
	tk2.Demand = tk.Demand.Scale(2.5)
	if got, want := tk2.CycleAllocation(), 2.5*c0; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("scaled allocation = %v, want %v", got, want)
	}
}

func TestDemandScalePanics(t *testing.T) {
	assertPanics(t, func() { Demand{1, 1}.Scale(0) })
	assertPanics(t, func() { Demand{1, 1}.Scale(-1) })
}

func TestDemandSamplePositive(t *testing.T) {
	src := rng.New(3)
	d := Demand{Mean: 100, Variance: 100 * 100 * 4} // huge variance
	for i := 0; i < 10000; i++ {
		if v := d.Sample(src); v <= 0 {
			t.Fatalf("non-positive demand %v", v)
		}
	}
}

func TestDemandSampleMoments(t *testing.T) {
	src := rng.New(9)
	d := Demand{Mean: 1e6, Variance: 1e6}
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(src)
	}
	if mean := sum / n; math.Abs(mean-1e6) > 1e3 {
		t.Fatalf("sample mean = %v", mean)
	}
}

func TestTaskValidate(t *testing.T) {
	if err := validTask().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskValidateRejects(t *testing.T) {
	mk := func(mod func(*Task)) *Task { tk := validTask(); mod(tk); return tk }
	cases := []*Task{
		nil,
		mk(func(tk *Task) { tk.Arrival.A = 0 }),
		mk(func(tk *Task) { tk.TUF = nil }),
		mk(func(tk *Task) { tk.TUF = tuf.NewStep(10, 0.04) }), // X != P
		mk(func(tk *Task) { tk.Demand.Mean = 0 }),
		mk(func(tk *Task) { tk.Req.Rho = 1 }),
		mk(func(tk *Task) { // nu=1 on a strictly decreasing TUF → D=0
			tk.TUF = tuf.NewLinear(10, 0, 0.05)
		}),
	}
	for i, tk := range cases {
		if err := tk.Validate(); err == nil {
			t.Errorf("case %d: invalid task accepted", i)
		}
	}
}

func TestCriticalTimeAndAllocation(t *testing.T) {
	tk := validTask()
	if d := tk.CriticalTime(); d != 0.05 {
		t.Fatalf("D = %v, want the step deadline", d)
	}
	want := 1e6 + math.Sqrt(0.96*1e6/0.04)
	if c := tk.CycleAllocation(); math.Abs(c-want) > 1e-6 {
		t.Fatalf("c = %v, want %v", c, want)
	}
	if got := tk.WindowCycles(); math.Abs(got-2*want) > 1e-6 {
		t.Fatalf("C = %v, want 2c", got)
	}
	if got, want := tk.MinFrequency(), 2*want/0.05; math.Abs(got-want) > 1e-6 {
		t.Fatalf("C/D = %v, want %v", got, want)
	}
}

func TestTaskString(t *testing.T) {
	tk := validTask()
	if tk.String() != "tracker" {
		t.Fatalf("string = %q", tk.String())
	}
	tk.Name = ""
	if tk.String() != "T1" {
		t.Fatalf("string = %q", tk.String())
	}
}

func TestSetValidate(t *testing.T) {
	a, b := validTask(), validTask()
	b.ID = 2
	if err := (Set{a, b}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Set{}).Validate(); err == nil {
		t.Fatal("empty set accepted")
	}
	dup := validTask()
	if err := (Set{a, dup}).Validate(); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

// TestSetValidateDuplicates covers both duplicate checks: the ordered
// scan of a set whose IDs increase up to the duplicate, and the map it
// falls back to once they stop increasing.
func TestSetValidateDuplicates(t *testing.T) {
	withIDs := func(ids ...int) Set {
		s := make(Set, len(ids))
		for i, id := range ids {
			s[i] = validTask()
			s[i].ID = id
		}
		return s
	}
	for _, c := range []struct {
		name string
		set  Set
		want string
	}{
		{"sorted", withIDs(1, 2, 5, 9), ""},
		{"unsorted", withIDs(9, 1, 5, 2), ""},
		{"sorted-adjacent-duplicate", withIDs(1, 2, 2, 3), "task: duplicate task ID 2"},
		{"unsorted-distant-duplicate", withIDs(3, 1, 2, 7, 3), "task: duplicate task ID 3"},
	} {
		err := c.set.Validate()
		if got := fmt.Sprint(err); c.want == "" && err != nil || c.want != "" && got != c.want {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
	// A task error still wins over a later duplicate, as in a plain scan.
	bad := withIDs(1, 1, 3)
	bad[2].Req.Rho = 1
	bad[1].Req.Nu = 2
	if err := bad.Validate(); err == nil || strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Validate() = %v, want the second task's requirement error", err)
	}
	sorted := withIDs(1, 2, 3, 4, 5, 6, 7, 8)
	if n := testing.AllocsPerRun(10, func() { _ = sorted.Validate() }); n != 0 {
		t.Errorf("validating an ID-sorted set allocates %v times, want 0", n)
	}
}

func TestSetLoad(t *testing.T) {
	tk := validTask()
	s := Set{tk}
	fmax := 1000e6
	want := tk.WindowCycles() / tk.CriticalTime() / fmax
	if got := s.Load(fmax); math.Abs(got-want) > 1e-12 {
		t.Fatalf("load = %v, want %v", got, want)
	}
	assertPanics(t, func() { s.Load(0) })
}

func TestScaleToLoad(t *testing.T) {
	a, b := validTask(), validTask()
	b.ID, b.Demand = 2, Demand{Mean: 5e5, Variance: 2e5}
	s := Set{a, b}
	fmax := 1000e6
	for _, target := range []float64{0.2, 0.5, 1.0, 1.8} {
		scaled := s.ScaleToLoad(target, fmax)
		if got := scaled.Load(fmax); math.Abs(got-target) > 1e-9 {
			t.Fatalf("target %v: load = %v", target, got)
		}
		// Original untouched.
		if a.Demand.Mean != 1e6 {
			t.Fatal("ScaleToLoad mutated input")
		}
		// Non-demand fields shared semantics preserved.
		if scaled[0].ID != a.ID || scaled[0].TUF != a.TUF {
			t.Fatal("ScaleToLoad lost task identity")
		}
	}
	assertPanics(t, func() { s.ScaleToLoad(0, fmax) })
}

func TestQuickScaleToLoadHitsTarget(t *testing.T) {
	f := func(seed uint64, loadRaw uint8) bool {
		target := float64(loadRaw%180)/100 + 0.05
		src := rng.New(seed)
		s := Set{
			{ID: 1, Arrival: uam.Spec{A: 1 + src.Intn(3), P: 0.05},
				TUF:    tuf.NewStep(10, 0.05),
				Demand: Demand{Mean: src.Uniform(1e5, 1e7), Variance: src.Uniform(1e5, 1e7)},
				Req:    Requirement{Nu: 1, Rho: 0.9}},
		}
		got := s.ScaleToLoad(target, 1000e6).Load(1000e6)
		return math.Abs(got-target) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewJob(t *testing.T) {
	tk := validTask()
	src := rng.New(4)
	j := NewJob(tk, 3, 1.25, src)
	if j.Task != tk || j.Index != 3 {
		t.Fatal("identity wrong")
	}
	if j.Arrival != 1.25 {
		t.Fatalf("arrival = %v", j.Arrival)
	}
	if math.Abs(j.Termination-1.30) > 1e-12 {
		t.Fatalf("termination = %v", j.Termination)
	}
	if math.Abs(j.AbsCritical-(1.25+tk.CriticalTime())) > 1e-12 {
		t.Fatalf("D^a = %v", j.AbsCritical)
	}
	if j.ActualCycles <= 0 {
		t.Fatalf("actual cycles = %v", j.ActualCycles)
	}
	if j.State != Pending {
		t.Fatalf("state = %v", j.State)
	}
}

func TestJobExecutionAccounting(t *testing.T) {
	tk := validTask()
	j := NewJob(tk, 0, 0, rng.New(1))
	j.ActualCycles = 1000
	if j.Done() {
		t.Fatal("fresh job done")
	}
	j.Executed = 999.9999
	if j.Remaining() < 0 {
		t.Fatal("negative remaining")
	}
	j.Executed = 1000
	if !j.Done() {
		t.Fatal("finished job not done")
	}
}

func TestEstimatedRemaining(t *testing.T) {
	tk := validTask()
	j := NewJob(tk, 0, 0, rng.New(1))
	c := tk.CycleAllocation()
	if got := j.EstimatedRemaining(); math.Abs(got-c) > 1e-9 {
		t.Fatalf("fresh estimate = %v, want c = %v", got, c)
	}
	j.Executed = c / 2
	if got := j.EstimatedRemaining(); math.Abs(got-c/2) > 1e-9 {
		t.Fatalf("half estimate = %v", got)
	}
	// Overrun: the estimate stays positive.
	j.Executed = 2 * c
	if got := j.EstimatedRemaining(); got <= 0 {
		t.Fatalf("overrun estimate = %v", got)
	}
}

func TestUtilityAtAndRequirement(t *testing.T) {
	tk := validTask() // step TUF height 10, deadline 0.05
	j := NewJob(tk, 0, 1.0, rng.New(1))
	if u := j.UtilityAt(1.02); u != 10 {
		t.Fatalf("U = %v", u)
	}
	if u := j.UtilityAt(1.06); u != 0 {
		t.Fatalf("late U = %v", u)
	}
	j.State = Completed
	j.Utility = 10
	if !j.MetRequirement() {
		t.Fatal("full utility did not meet requirement")
	}
	j.Utility = 5
	if j.MetRequirement() {
		t.Fatal("nu=1 met with half utility")
	}
	j.State = Aborted
	j.Utility = 10
	if j.MetRequirement() {
		t.Fatal("aborted job met requirement")
	}
}

func TestLateness(t *testing.T) {
	tk := validTask()
	j := NewJob(tk, 0, 0, rng.New(1))
	j.FinishedAt = j.AbsCritical - 0.01
	if l := j.Lateness(); math.Abs(l+0.01) > 1e-12 {
		t.Fatalf("lateness = %v", l)
	}
}

func TestStateString(t *testing.T) {
	if Pending.String() != "pending" || Completed.String() != "completed" ||
		Aborted.String() != "aborted" || State(9).String() == "" {
		t.Fatal("state strings wrong")
	}
}

func TestJobString(t *testing.T) {
	j := NewJob(validTask(), 2, 0.5, rng.New(1))
	if j.String() != "tracker#2@0.5" {
		t.Fatalf("string = %q", j.String())
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
