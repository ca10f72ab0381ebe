package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/euastar/euastar/internal/client"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/server"
)

// remoteOpts is what a remote run needs from the euasim flags.
type remoteOpts struct {
	base     string // euad address
	jobID    string // idempotency-key prefix ("" = random per invocation)
	exps     []experiment.Experiment
	spec     server.JobSpec // every sweep's parameters; ID and Experiment are set per sweep
	jsonPath string
}

// runRemote submits each requested sweep to a euad daemon and prints the
// daemon-rendered tables. Because the daemon renders with the same
// writers and configuration description as the local path, stdout is
// byte-identical to running the sweep locally with the same parameters.
func runRemote(opts remoteOpts, out, diag io.Writer, sigs <-chan os.Signal) error {
	for _, x := range opts.exps {
		if !x.Sweep() {
			return fmt.Errorf("experiment %q cannot run remotely (supported: %s)", x.Name, experimentNames(true, ", "))
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

	ctx, stop := signalContext(sigs, diag, fmt.Sprintf("abandoning remote wait (jobs keep running on %s)", opts.base))
	defer stop()

	c := client.New(opts.base)
	var docs []experiment.JSONDocument
	total := time.Now()
	for _, x := range opts.exps {
		e := x.Name
		start := time.Now()
		spec := opts.spec
		spec.ID, spec.Experiment = fmt.Sprintf("%s-%s", prefix, e), e
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
		if x.JSON() {
			docs = append(docs, res.JSONDocument)
		}
	}
	fmt.Fprintf(diag, "euasim: all experiments done in %v\n", time.Since(total).Round(time.Millisecond))
	return writeDocs(out, opts.jsonPath, docs)
}
