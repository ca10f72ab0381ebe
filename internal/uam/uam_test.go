package uam

import (
	"testing"
	"testing/quick"

	"github.com/euastar/euastar/internal/rng"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		s  Spec
		ok bool
	}{
		{Spec{1, 1}, true},
		{Spec{5, 0.04}, true},
		{Spec{0, 1}, false},
		{Spec{-1, 1}, false},
		{Spec{1, 0}, false},
		{Spec{1, -2}, false},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%v: err=%v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestSpecHelpers(t *testing.T) {
	s := Spec{4, 2}
	if s.MaxRate() != 2 {
		t.Fatalf("rate = %v", s.MaxRate())
	}
	if s.IsPeriodic() {
		t.Fatal("a=4 claimed periodic")
	}
	if !(Spec{1, 5}).IsPeriodic() {
		t.Fatal("a=1 not periodic")
	}
	if s.String() != "<4, 2>" {
		t.Fatalf("string = %q", s.String())
	}
}

func TestCompliantAccepts(t *testing.T) {
	cases := []struct {
		trace []float64
		spec  Spec
	}{
		{[]float64{}, Spec{1, 1}},
		{[]float64{0}, Spec{1, 1}},
		{[]float64{0, 1, 2, 3}, Spec{1, 1}},
		{[]float64{0, 0, 1, 1, 2, 2}, Spec{2, 1}},
		{[]float64{0, 0.5, 1, 1.5}, Spec{2, 1}},
	}
	for i, c := range cases {
		if err := Compliant(c.trace, c.spec); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestCompliantRejects(t *testing.T) {
	cases := []struct {
		trace []float64
		spec  Spec
	}{
		{[]float64{0, 0.5, 0.9}, Spec{2, 1}},      // 3 in a window
		{[]float64{0, 0}, Spec{1, 1}},             // simultaneous beyond a
		{[]float64{1, 0}, Spec{1, 1}},             // unsorted
		{[]float64{-1, 0}, Spec{1, 1}},            // negative time
		{[]float64{0, 0.2, 0.4, 0.9}, Spec{3, 1}}, // 4 within [0, 1)
	}
	for i, c := range cases {
		if err := Compliant(c.trace, c.spec); err == nil {
			t.Errorf("case %d: violation accepted", i)
		}
	}
}

func TestBurstGenerate(t *testing.T) {
	g := Burst{S: Spec{3, 2}}
	tr := g.Generate(6, nil)
	want := []float64{0, 0, 0, 2, 2, 2, 4, 4, 4}
	if len(tr) != len(want) {
		t.Fatalf("trace = %v", tr)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace = %v, want %v", tr, want)
		}
	}
	if err := Compliant(tr, g.Spec()); err != nil {
		t.Fatal(err)
	}
}

func TestBurstOffset(t *testing.T) {
	g := Burst{S: Spec{1, 2}, Offset: 0.5}
	tr := g.Generate(5, nil)
	if len(tr) != 3 || tr[0] != 0.5 || tr[1] != 2.5 || tr[2] != 4.5 {
		t.Fatalf("trace = %v", tr)
	}
}

func TestBurstBadOffsetPanics(t *testing.T) {
	assertPanics(t, func() { Burst{S: Spec{1, 2}, Offset: 2}.Generate(4, nil) })
	assertPanics(t, func() { Burst{S: Spec{1, 2}, Offset: -0.1}.Generate(4, nil) })
}

func TestEvenGenerate(t *testing.T) {
	g := Even{S: Spec{2, 2}}
	tr := g.Generate(4, nil)
	want := []float64{0, 1, 2, 3}
	if len(tr) != len(want) {
		t.Fatalf("trace = %v", tr)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace = %v, want %v", tr, want)
		}
	}
	if err := Compliant(tr, g.Spec()); err != nil {
		t.Fatal(err)
	}
}

func TestEvenIsPeriodicForA1(t *testing.T) {
	tr := Even{S: Spec{1, 3}}.Generate(10, nil)
	for i, want := range []float64{0, 3, 6, 9} {
		if tr[i] != want {
			t.Fatalf("trace = %v", tr)
		}
	}
}

func TestRandomBurstCompliant(t *testing.T) {
	src := rng.New(17)
	for _, a := range []int{1, 2, 3, 5} {
		g := RandomBurst{S: Spec{a, 1.5}}
		tr := g.Generate(150, src)
		if err := Compliant(tr, g.Spec()); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if len(tr) == 0 || len(tr)%a != 0 {
			t.Fatalf("a=%d: %d arrivals, want multiple of a", a, len(tr))
		}
	}
}

func TestRandomBurstSimultaneous(t *testing.T) {
	src := rng.New(19)
	g := RandomBurst{S: Spec{3, 1}}
	tr := g.Generate(50, src)
	for i := 0; i+2 < len(tr); i += 3 {
		if tr[i] != tr[i+1] || tr[i] != tr[i+2] {
			t.Fatalf("burst %d not simultaneous: %v", i/3, tr[i:i+3])
		}
	}
}

func TestRandomBurstPhaseVaries(t *testing.T) {
	src := rng.New(23)
	g := RandomBurst{S: Spec{1, 1}}
	tr := g.Generate(100, src)
	// Window phases must not be constant (that would be Burst).
	varies := false
	for i := 2; i < len(tr); i++ {
		if gapA, gapB := tr[i]-tr[i-1], tr[i-1]-tr[i-2]; gapA != gapB {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("random burst produced a fixed phase")
	}
}

func TestJitteredCompliant(t *testing.T) {
	src := rng.New(7)
	for _, a := range []int{1, 2, 3, 5} {
		g := Jittered{S: Spec{a, 1.5}, JitterFrac: 1}
		tr := g.Generate(100, src)
		if err := Compliant(tr, g.Spec()); err != nil {
			t.Fatalf("a=%d: %v", a, err)
		}
		if len(tr) == 0 {
			t.Fatalf("a=%d: empty trace", a)
		}
	}
}

func TestJitteredZeroJitterIsEven(t *testing.T) {
	g := Jittered{S: Spec{2, 2}, JitterFrac: 0}
	tr := g.Generate(4, rng.New(1))
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace = %v, want %v", tr, want)
		}
	}
}

func TestJitteredBadFracPanics(t *testing.T) {
	assertPanics(t, func() { Jittered{S: Spec{1, 1}, JitterFrac: 1.5}.Generate(2, rng.New(1)) })
}

func TestPoissonCompliantAndSaturates(t *testing.T) {
	src := rng.New(99)
	spec := Spec{2, 1}
	// Rate far above the UAM max: the clamp must keep the trace legal.
	g := Poisson{S: spec, Rate: 50}
	tr := g.Generate(200, src)
	if err := Compliant(tr, spec); err != nil {
		t.Fatal(err)
	}
	// Should saturate near the max density: ~a per P.
	rate := float64(len(tr)) / 200
	if rate < 1.5 || rate > 2.001 {
		t.Fatalf("saturated rate = %v, want near 2", rate)
	}
}

func TestPoissonLowRate(t *testing.T) {
	src := rng.New(5)
	g := Poisson{S: Spec{3, 1}, Rate: 0.5}
	tr := g.Generate(2000, src)
	if err := Compliant(tr, g.Spec()); err != nil {
		t.Fatal(err)
	}
	rate := float64(len(tr)) / 2000
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("rate = %v, want ~0.5", rate)
	}
}

func TestPoissonBadRatePanics(t *testing.T) {
	assertPanics(t, func() { Poisson{S: Spec{1, 1}, Rate: 0}.Generate(2, rng.New(1)) })
}

func TestQuickGeneratorsCompliant(t *testing.T) {
	f := func(seed uint64, aRaw, pRaw uint8) bool {
		a := int(aRaw%4) + 1
		p := float64(pRaw%50)/10 + 0.1
		spec := Spec{a, p}
		src := rng.New(seed)
		horizon := 40 * p
		gens := []Generator{
			Burst{S: spec},
			Even{S: spec},
			Jittered{S: spec, JitterFrac: 0.9},
			Poisson{S: spec, Rate: spec.MaxRate() * 2},
		}
		for _, g := range gens {
			tr := g.Generate(horizon, src)
			if Compliant(tr, spec) != nil {
				return false
			}
			for _, at := range tr {
				if at < 0 || at >= horizon {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDensity(t *testing.T) {
	tr := []float64{0, 0, 0, 2, 2, 2}
	if d := Density(tr, 1); d != 3 {
		t.Fatalf("density = %d, want 3", d)
	}
	if d := Density(tr, 3); d != 6 {
		t.Fatalf("density = %d, want 6", d)
	}
	if d := Density(nil, 1); d != 0 {
		t.Fatalf("density of empty = %d", d)
	}
}

func TestDensityMatchesSpecBound(t *testing.T) {
	src := rng.New(31)
	spec := Spec{3, 2}
	for _, g := range []Generator{
		Burst{S: spec}, Even{S: spec},
		Jittered{S: spec, JitterFrac: 1}, Poisson{S: spec, Rate: 10},
	} {
		tr := g.Generate(100, src)
		if d := Density(tr, spec.P); d > spec.A {
			t.Errorf("%s: density %d > a=%d", g.Name(), d, spec.A)
		}
	}
}

func TestGeneratorNames(t *testing.T) {
	spec := Spec{1, 1}
	for _, g := range []Generator{Burst{S: spec}, Even{S: spec}, Jittered{S: spec}, Poisson{S: spec, Rate: 1}} {
		if g.Name() == "" {
			t.Errorf("%T has empty name", g)
		}
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

func BenchmarkCompliant(b *testing.B) {
	tr := Even{S: Spec{2, 1}}.Generate(1000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Compliant(tr, Spec{2, 1}); err != nil {
			b.Fatal(err)
		}
	}
}
