package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/config"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/experiment"
)

// runAdmit implements euasim -admit: load the task-set document, run the
// O(n) analytical admission test for the scheme, and print the verdict
// with the quantities it was derived from — the offline twin of euad's
// fast-reject path. The exit code is 0 for every verdict: the command
// answers a question, it does not gate anything itself.
func runAdmit(path, scheme string, load float64, jsonPath string, out io.Writer) error {
	if _, ok := experiment.SchemeByName(scheme); !ok {
		return fmt.Errorf("unknown scheme %q (%s)", scheme, experiment.SchemeNameList())
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ts, err := config.Load(f)
	if err != nil {
		return err
	}
	ft := cpu.PowerNowK6()
	if load > 0 {
		ts = ts.ScaleToLoad(load, ft.Max())
	}
	res, err := admission.Analyze(ts, ft, scheme)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.String())
	fmt.Fprintf(out, "utilization=%.4f floor_density=%.4f busy_period=%.4gs min_critical=%.4gs\n",
		res.Utilization, res.FloorDensity, res.BusyPeriod, res.MinCritical)
	if jsonPath != "" {
		jf, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(jf)
		enc.SetIndent("", "  ")
		werr := enc.Encode(res)
		if cerr := jf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(out, "JSON verdict written to %s\n", jsonPath)
	}
	return nil
}
