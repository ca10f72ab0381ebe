package eua

import (
	"testing"

	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
)

// TestFmCertificate decides hand-built ready sets on which decideFreq's
// f_m certificate must fire or must not, and holds each frequency to
// the reference's. The head task's job was released at 0 with
// c = 5/16·f_m cycles and critical time D1 = 1; its f^o is f_m/2, the
// step below f_m on the shortcutCtx table, since at f_m/4 the job would
// miss its step. The idle task has released nothing, so its phantom
// entry's critical time is now + D_i.
func TestFmCertificate(t *testing.T) {
	const c = 5.0 / 16 * shortcutFm
	for _, tc := range []struct {
		name      string
		now       float64
		idleCrit  float64 // D_i of the idle task, 0 for none
		ratio     float64 // R/(D1 − now) over f_m
		certified bool
		freq      float64
	}{
		// R/(D1 − now) = 0.625·f_m lies between f_m/2 and f_m, but the
		// idle task's phantom entry precedes D1: the look-ahead's dn is
		// its critical time, the head job's work defers past it, and the
		// frequency is f_m/2 (the f^o clamp on f_m/4).
		{"phantom-precedes-D1", 0.5, 1.0 / 64, 0.625, false, shortcutFm / 2},
		// The phantom's critical time falls on D1 exactly: D1 is dn.
		{"phantom-on-D1", 0.5, 0.5, 0.625, true, shortcutFm},
		{"no-idle-task", 0.5, 0, 0.625, true, shortcutFm},
		// R/(D1 − now) is exactly f_m/2, which the table serves.
		{"on-the-step-below", 0.375, 0, 0.5, false, shortcutFm / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := shortcutTask(1, 1, 1, tuf.NewStep(10, 1), 1, c)
			ts := task.Set{head}
			if tc.idleCrit > 0 {
				ts = append(ts, shortcutTask(2, 1, tc.idleCrit, tuf.NewStep(1, tc.idleCrit), 1, shortcutFm/4096))
			}
			core, ref := New(), NewReference().(*refScheduler)
			if err := core.Init(shortcutCtx(ts)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Init(shortcutCtx(ts)); err != nil {
				t.Fatal(err)
			}
			if fo, _ := core.fo(0, head); fo != shortcutFm/2 {
				t.Fatalf("f^o of the head task is %v, the case is built for f_m/2", fo)
			}
			cj, rj := releasedJob(head, 0, 0, 0), releasedJob(head, 0, 0, 0)
			core.OnRelease(0, cj)
			ref.OnRelease(0, rj)
			if q := c / (cj.AbsCritical - tc.now); q != tc.ratio*shortcutFm {
				t.Fatalf("R/(D1 − now) = %v, the case is built for %v·f_m", q, tc.ratio)
			}
			got := core.Decide(tc.now, []*task.Job{cj})
			want := ref.Decide(tc.now, []*task.Job{rj})
			if got.Run != cj || want.Run != rj {
				t.Fatalf("run: core %v, reference %v; want the head job", got.Run, want.Run)
			}
			if got.Freq != want.Freq || got.Freq != tc.freq {
				t.Fatalf("freq: core %v, reference %v; the case is built for %v", got.Freq, want.Freq, tc.freq)
			}
			if certified := core.fp.certified == 1; certified != tc.certified {
				t.Fatalf("certificate fired: %v, want %v", certified, tc.certified)
			}
		})
	}
}
