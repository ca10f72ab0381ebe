package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/euastar/euastar/internal/client"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/server"
)

// remoteOpts is the subset of euasim flags a remote run forwards to euad.
type remoteOpts struct {
	base     string // euad address
	jobID    string // idempotency-key prefix ("" = random per invocation)
	exp      string
	preset   string
	loads    []float64
	seeds    int
	horizon  float64
	faults   string
	jsonPath string
}

// remoteExperiments are the sweeps euad can run on our behalf.
var remoteExperiments = map[string]bool{
	"fig2":      true,
	"fig3":      true,
	"assurance": true,
	"ablation":  true,
}

// runRemote submits each requested sweep to a euad daemon and prints the
// daemon-rendered tables. Because the daemon renders with the same
// writers and configuration description as the local path, stdout is
// byte-identical to running the sweep locally with the same parameters.
func runRemote(opts remoteOpts, out, diag io.Writer, sigs <-chan os.Signal) error {
	todo := strings.Split(opts.exp, ",")
	for _, e := range todo {
		if !remoteExperiments[e] {
			return fmt.Errorf("experiment %q cannot run remotely (supported: fig2, fig3, assurance, ablation)", e)
		}
	}
	prefix := opts.jobID
	if prefix == "" {
		// Fresh random IDs each invocation: reruns recompute instead of
		// replaying a previous submission's result. A fixed -job-id opts
		// into replay/resume semantics.
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return err
		}
		prefix = "euasim-" + hex.EncodeToString(buf[:])
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if sigs != nil {
		go func() {
			select {
			case s := <-sigs:
				fmt.Fprintf(diag, "euasim: received %v, abandoning remote wait (jobs keep running on %s)\n", s, opts.base)
				cancel()
			case <-ctx.Done():
			}
		}()
	}

	c := client.New(opts.base)
	var docs []experiment.JSONDocument
	total := time.Now()
	for _, e := range todo {
		start := time.Now()
		spec := server.JobSpec{
			ID:         fmt.Sprintf("%s-%s", prefix, e),
			Kind:       server.KindSweep,
			Experiment: e,
			Energy:     opts.preset,
			Loads:      opts.loads,
			Seeds:      opts.seeds,
			Horizon:    opts.horizon,
			Faults:     opts.faults,
		}
		st, err := c.Run(ctx, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		if st.State != server.StateDone {
			return fmt.Errorf("%s: job %s %s: %w", e, st.ID, st.State, st.Error)
		}
		var res server.SweepResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			return fmt.Errorf("%s: decode result: %w", e, err)
		}
		fmt.Fprintf(out, "== %s (%s) ==\n", e, res.Config)
		io.WriteString(out, res.Text)
		fmt.Fprintln(out)
		fmt.Fprintf(diag, "euasim: %s done remotely in %v (job %s)\n",
			e, time.Since(start).Round(time.Millisecond), st.ID)
		docs = append(docs, res.JSONDocument)
	}
	fmt.Fprintf(diag, "euasim: all experiments done in %v\n", time.Since(total).Round(time.Millisecond))
	if opts.jsonPath != "" {
		f, err := os.Create(opts.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		for _, doc := range docs {
			if err := experiment.WriteJSON(f, doc); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "JSON results written to %s\n", opts.jsonPath)
	}
	return nil
}
