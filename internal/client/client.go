// Package client talks to a euad daemon. It retries transient failures
// (network errors, 429 backpressure, 5xx) with jittered exponential
// backoff, honoring the server's Retry-After hint. Retries are safe
// because job IDs are client-supplied idempotency keys: resubmitting the
// same spec after an ambiguous failure returns the existing job instead
// of duplicating work.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/euastar/euastar/internal/server"
)

// Client is a euad API client. The zero value is not usable; construct
// with New.
type Client struct {
	// Base is the daemon address, e.g. "http://127.0.0.1:9176".
	Base string
	// HTTP is the underlying transport client.
	HTTP *http.Client
	// Retries is how many additional attempts a transient failure gets
	// (default 8).
	Retries int
	// BaseDelay and MaxDelay bound the exponential backoff schedule
	// (defaults 100ms and 5s). Each delay is jittered uniformly over
	// [d/2, d] so synchronized clients do not stampede.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// MaxElapsed bounds the total wall-clock a retry loop may consume,
	// including the pending backoff sleep: once the budget cannot fit the
	// next wait, the loop gives up with the last error. Zero means
	// unlimited; New sets 10 minutes. The budget caps Retry-After floors
	// too — a server demanding a longer wait than the budget allows turns
	// into a fast give-up rather than a blown deadline.
	MaxElapsed time.Duration
	// Breaker is the consecutive-failure circuit breaker guarding every
	// request this client sends; nil disables it. New installs one with
	// the default threshold (5) and cooldown (2s).
	Breaker *Breaker
	// jitter overrides the randomness source in tests.
	jitter func() float64
	// clock overrides time.Now for the MaxElapsed budget in tests.
	clock func() time.Time
}

// New builds a client for the daemon at base.
func New(base string) *Client {
	return &Client{
		Base:       strings.TrimRight(base, "/"),
		HTTP:       &http.Client{Timeout: 60 * time.Second},
		Retries:    8,
		BaseDelay:  100 * time.Millisecond,
		MaxDelay:   5 * time.Second,
		MaxElapsed: 10 * time.Minute,
		Breaker:    NewBreaker(0, 0),
	}
}

// APIError is a structured error response from the daemon.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("euad: HTTP %d: %s: %s", e.StatusCode, e.Code, e.Message)
}

// Temporary reports whether retrying the same request can succeed:
// backpressure (429), draining (503) and other 5xx responses are
// transient; the remaining 4xx are client bugs.
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// SeedJitter replaces the backoff's randomness with a deterministic
// seeded source (safe for concurrent use), so a retry schedule can be
// reproduced exactly — worker lease loops use this to stay predictable
// in tests and debuggable under coordinator restarts.
func (c *Client) SeedJitter(seed int64) {
	r := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	c.jitter = func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
}

// backoff returns the delay before attempt (1-based): exponential from
// BaseDelay, jittered over [d/2, d], then bounded by the server's
// Retry-After hint when present — the floor is a promise ("don't come
// back sooner"), so the jitter window shifts to [floor, d] rather than
// collapsing onto the floor, which would march synchronized clients back
// in lockstep. The result never exceeds max(MaxDelay, floor): a server
// asking for a longer wait than MaxDelay is honored exactly, but jitter
// alone can never push past the cap.
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	d := c.BaseDelay
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	max := c.MaxDelay
	if max <= 0 {
		max = 5 * time.Second
	}
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if d < floor {
		d = floor
	}
	lo := d / 2
	if lo < floor {
		lo = floor
	}
	rnd := c.jitter
	if rnd == nil {
		rnd = rand.Float64
	}
	d = lo + time.Duration(rnd()*float64(d-lo))
	if cap := maxDur(max, floor); d > cap {
		d = cap
	}
	return d
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// doJSON performs one request, decoding the error envelope (with its
// Retry-After hint) on ≥400 and the response body into out otherwise.
// Transport errors come back as-is (and are retryable).
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Code: "http_error", Message: strings.TrimSpace(string(data))}
		var env struct {
			Error server.JobError `json:"error"`
		}
		if jerr := json.Unmarshal(data, &env); jerr == nil && env.Error.Code != "" {
			apiErr.Code, apiErr.Message = env.Error.Code, env.Error.Message
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("euad: decode response: %w", err)
	}
	return nil
}

// do performs one request and decodes a JobStatus.
func (c *Client) do(ctx context.Context, method, url string, body []byte) (*server.JobStatus, error) {
	var st server.JobStatus
	if err := c.doJSON(ctx, method, url, body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// retryLoop runs one request attempt function under the retry policy:
// jittered exponential backoff floored by Retry-After (or the breaker's
// remaining cooldown), permanent API errors returned immediately, the
// whole loop bounded by the MaxElapsed wall-clock budget.
func (c *Client) retryLoop(ctx context.Context, attempt func() error) error {
	now := c.clock
	if now == nil {
		now = time.Now
	}
	start := now()
	var lastErr error
	for try := 0; ; try++ {
		if try > 0 {
			var floor time.Duration
			var apiErr *APIError
			var boe *BreakerOpenError
			switch {
			case asAPIError(lastErr, &apiErr):
				floor = apiErr.RetryAfter
			case asBreakerOpen(lastErr, &boe):
				floor = boe.RetryAfter
			}
			d := c.backoff(try, floor)
			if c.MaxElapsed > 0 && now().Sub(start)+d > c.MaxElapsed {
				return fmt.Errorf("euad: retry budget %v exhausted after %d attempts: %w", c.MaxElapsed, try, lastErr)
			}
			if err := sleepCtx(ctx, d); err != nil {
				return fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
		}
		err := c.guardedAttempt(ctx, attempt)
		if err == nil {
			return nil
		}
		lastErr = err
		var apiErr *APIError
		if asAPIError(err, &apiErr) && !apiErr.Temporary() {
			return err // permanent: retrying cannot help
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		}
		if try >= c.Retries {
			return fmt.Errorf("euad: giving up after %d attempts: %w", try+1, lastErr)
		}
	}
}

// guardedAttempt runs one attempt through the circuit breaker: fail fast
// while it is open, record the outcome otherwise. Attempts aborted by
// the caller's own context are not recorded — they say nothing about the
// peer's health.
func (c *Client) guardedAttempt(ctx context.Context, attempt func() error) error {
	b := c.Breaker
	if b == nil {
		return attempt()
	}
	if ok, wait := b.Allow(); !ok {
		return &BreakerOpenError{RetryAfter: wait}
	}
	err := attempt()
	if err != nil && ctx.Err() != nil {
		// Aborted mid-flight by the caller's own context. Don't count it
		// against the peer — but a half-open probe slot must not leak, so
		// an aborted probe re-opens for another cooldown.
		if b.State() == BreakerHalfOpen {
			b.Failure()
		}
		return err
	}
	b.observe(err)
	return err
}

// retrying runs one JobStatus-returning attempt under the retry policy.
func (c *Client) retrying(ctx context.Context, attempt func() (*server.JobStatus, error)) (*server.JobStatus, error) {
	var st *server.JobStatus
	err := c.retryLoop(ctx, func() error {
		s, err := attempt()
		if err == nil {
			st = s
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// postJSON posts req to path and decodes the response into a fresh T,
// under the client's full retry discipline.
func postJSON[T any](ctx context.Context, c *Client, path string, req any) (*T, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out *T
	err = c.retryLoop(ctx, func() error {
		var v T
		if err := c.doJSON(ctx, http.MethodPost, c.Base+path, body, &v); err != nil {
			return err
		}
		out = &v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func asAPIError(err error, out **APIError) bool {
	if e, ok := err.(*APIError); ok {
		*out = e
		return true
	}
	return false
}

// Submit enqueues a job. The spec's ID makes this idempotent: a retry
// after an ambiguous failure, or a resubmission of an already-known job,
// returns the existing job's status.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (*server.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return c.retrying(ctx, func() (*server.JobStatus, error) {
		return c.do(ctx, http.MethodPost, c.Base+"/v1/jobs", body)
	})
}

// Get fetches a job's current status.
func (c *Client) Get(ctx context.Context, id string) (*server.JobStatus, error) {
	return c.retrying(ctx, func() (*server.JobStatus, error) {
		return c.do(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id, nil)
	})
}

// Wait long-polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (*server.JobStatus, error) {
	for {
		st, err := c.retrying(ctx, func() (*server.JobStatus, error) {
			return c.do(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"?wait=30s", nil)
		})
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// Run submits the job and waits for its terminal status.
func (c *Client) Run(ctx context.Context, spec server.JobSpec) (*server.JobStatus, error) {
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if st.Terminal() {
		return st, nil
	}
	return c.Wait(ctx, spec.ID)
}
