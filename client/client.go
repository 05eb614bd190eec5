// Package client is the Go client for camouflaged, the Camouflage
// simulation service daemon, and defines the wire types the daemon and
// its clients share. The daemon owns the process-wide warm pool of
// booted machines, so remote runs pay boots only once per configuration
// across *all* clients; renderings are byte-identical to in-process
// sequential runs (pinned by the server tests and the CI server-smoke
// job).
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
	"time"

	"camouflage/internal/attack"
	"camouflage/internal/fault"
	"camouflage/internal/figures"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
)

// ExperimentsRequest selects a figures.All() subset to run.
type ExperimentsRequest struct {
	// IDs are experiment IDs in the registry (empty = all, paper order).
	IDs []string `json:"ids,omitempty"`
	// CPUs is the vCPU count of every machine the experiments boot
	// (0/1: uniprocessor, byte-identical to pre-SMP renderings; up to
	// kernel.MaxCPUs, else 400). Runs with different counts overlap
	// freely: each run carries its own count.
	CPUs int `json:"cpus,omitempty"`
	// DeadlineMS bounds the run; past it the server stops between
	// experiments and between the cells inside one, and returns 504
	// (0 = no deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ExperimentsResponse carries the rendering, per-experiment wall time
// and simulated work, and the daemon's warm-pool counters.
type ExperimentsResponse struct {
	Output      string             `json:"output"`
	TotalWallNs int64              `json:"total_wall_ns"`
	Pool        snapshot.Stats     `json:"pool"`
	Experiments []figures.RunStats `json:"experiments"`
	// RunID names the run's trace (GET /v1/runs/{id}/trace).
	RunID string `json:"run_id,omitempty"`
}

// ExperimentInfo is one registry entry (GET /v1/experiments).
type ExperimentInfo struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	PaperRef string   `json:"paper_ref"`
	Levels   []string `json:"levels,omitempty"`
}

// CampaignRequest tunes a differential attack campaign run.
type CampaignRequest struct {
	// Mutations is the forked attempts per (attack, level) cell.
	Mutations int `json:"mutations,omitempty"`
	// Seed drives the mutation PRNGs.
	Seed uint64 `json:"seed,omitempty"`
	// Levels filters the §6.2 configurations by name (empty = all).
	Levels []string `json:"levels,omitempty"`
	// CPUs is the vCPU count of every cell machine (up to
	// kernel.MaxCPUs, else 400); at 2+ the campaign includes the
	// cross-core f_ops replay scenario.
	CPUs int `json:"cpus,omitempty"`
	// DeadlineMS bounds the run (0 = no deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CampaignResponse carries the defeat/bypass matrix and its rendering.
type CampaignResponse struct {
	Report      *attack.CampaignReport `json:"report"`
	Output      string                 `json:"output"`
	TotalWallNs int64                  `json:"total_wall_ns"`
	// RunID names the run's trace (GET /v1/runs/{id}/trace).
	RunID string `json:"run_id,omitempty"`
}

// MachineRequest leases a warm machine by build options.
type MachineRequest struct {
	// Level is the protection level name: "none", "backward-edge" or
	// "full" (empty = "full").
	Level string `json:"level,omitempty"`
	// Seed drives boot-time randomness.
	Seed uint64 `json:"seed,omitempty"`
	// FailureThreshold overrides the §5.4 brute-force halt threshold.
	FailureThreshold int `json:"failure_threshold,omitempty"`
	// Compat leases the §5.5 backwards-compatible build on a v8.0 core.
	Compat bool `json:"compat,omitempty"`
	// CPUs is the machine's vCPU count (0/1: uniprocessor; up to
	// kernel.MaxCPUs, else 400). Leased SMP machines run their cores under the
	// deterministic round-robin scheduler on every /run step.
	CPUs int `json:"cpus,omitempty"`
}

// MachineResponse identifies a granted lease.
type MachineResponse struct {
	ID         string `json:"id"`
	Key        string `json:"key"`
	BootCycles uint64 `json:"boot_cycles"`
}

// MachineRunRequest steps a leased machine.
type MachineRunRequest struct {
	// MaxInstrs is the instruction budget (0 = the server default).
	MaxInstrs uint64 `json:"max_instrs,omitempty"`
}

// MachineRunResponse reports why the run stopped and where the machine
// landed.
type MachineRunResponse struct {
	// Stop is "limit", "hlt" or "error".
	Stop string `json:"stop"`
	// StopCode is the HLT immediate for Stop == "hlt".
	StopCode uint16 `json:"stop_code,omitempty"`
	// Error carries the simulation error detail for Stop == "error"
	// (the machine and its lease survive).
	Error       string `json:"error,omitempty"`
	PC          uint64 `json:"pc"`
	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	Halted      bool   `json:"halted"`
	PACFailures int    `json:"pac_failures"`
	// RunID names the step's trace (GET /v1/runs/{id}/trace).
	RunID string `json:"run_id,omitempty"`
}

// OopsRecord mirrors one kernel fault-log entry.
type OopsRecord struct {
	ESR        uint64 `json:"esr"`
	FAR        uint64 `json:"far"`
	ELR        uint64 `json:"elr"`
	Kernel     bool   `json:"kernel"`
	PACFailure bool   `json:"pac_failure"`
}

// MachineState is the readback view of a leased machine: registers,
// console output and the fault log.
type MachineState struct {
	ID          string       `json:"id"`
	Key         string       `json:"key"`
	PC          uint64       `json:"pc"`
	SP          [2]uint64    `json:"sp"`
	EL          int          `json:"el"`
	X           []uint64     `json:"x"`
	Cycles      uint64       `json:"cycles"`
	Instrs      uint64       `json:"instrs"`
	Halted      bool         `json:"halted"`
	PACFailures int          `json:"pac_failures"`
	UART        string       `json:"uart"`
	Oops        []OopsRecord `json:"oops,omitempty"`
}

// QueueStats describes the daemon's bounded work queue.
type QueueStats struct {
	// Depth is requests waiting for a slot right now.
	Depth int `json:"depth"`
	// Running is jobs holding a slot.
	Running int `json:"running"`
	// Capacity is the concurrent-slot count; MaxQueue bounds Depth.
	Capacity int `json:"capacity"`
	MaxQueue int `json:"max_queue"`
}

// LeaseStats describes machine-lease lifecycle counters.
type LeaseStats struct {
	Active   int    `json:"active"`
	Issued   uint64 `json:"issued"`
	Released uint64 `json:"released"`
	// Expired counts leases reclaimed by the idle reaper.
	Expired uint64 `json:"expired"`
}

// StatsResponse is the GET /v1/stats document. The event counts in Pool
// and Leases are process totals, read from the registry that Metrics
// embeds.
type StatsResponse struct {
	Pool     snapshot.Stats `json:"pool"`
	Queue    QueueStats     `json:"queue"`
	Leases   LeaseStats     `json:"leases"`
	Draining bool           `json:"draining"`
	UptimeNs int64          `json:"uptime_ns"`
	// Metrics embeds the full observability registry (the same numbers
	// GET /metrics exposes, as JSON).
	Metrics obs.Snapshot `json:"metrics"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("camouflaged: %d %s", e.Status, e.Message)
}

// RetryPolicy governs transparent request retries. Only requests that
// may be sent again retry: GETs, and the experiment and campaign POSTs.
// A job is a deterministic function of its request, so a retry after a
// dropped response re-runs it and gets the same output bytes; only its
// timing and run ID are its own. Every other POST (lease, run, reset,
// release) is sent once. Retryable failures are transport errors
// (connection reset, timeout short of the context deadline) and
// 502/503/504. A Retry-After on the response floors the wait: a proxy
// in front of the daemon may send one, and the client.5xx fault point
// synthesizes a 503 with Retry-After: 0; the daemon itself sends none.
type RetryPolicy struct {
	// MaxAttempts is the total tries per request (1 = no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff; each retry doubles it up
	// to MaxDelay, with ±50% jitter to spread synchronized retriers.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy is what New installs: 3 attempts, 100ms doubling
// to 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// DefaultTimeout caps one HTTP request end to end (connect through
// body) unless the caller's context is tighter. Experiment and
// campaign runs are minutes-long on loaded daemons; the cap exists to
// bound a wedged connection, not a slow job.
const DefaultTimeout = 10 * time.Minute

// Client talks to one camouflaged daemon.
type Client struct {
	base string
	// HTTP is the underlying client (default: a dedicated client with
	// DefaultTimeout; replace it to tune transport or TLS).
	HTTP *http.Client
	// Retry is the retry policy (default DefaultRetryPolicy; set
	// MaxAttempts to 1 to disable).
	Retry RetryPolicy
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8344").
func New(base string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		HTTP:  &http.Client{Timeout: DefaultTimeout},
		Retry: DefaultRetryPolicy(),
	}
}

// retryAfterSentinel distinguishes "no server hint" from Retry-After: 0.
const retryAfterSentinel = time.Duration(-1)

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.send(ctx, method, path, in, out, method == http.MethodGet)
}

// send is the request core: marshal once, then attempt with backoff.
// retryable marks a request that may be sent again; any other request
// gets one attempt.
func (c *Client) send(ctx context.Context, method, path string, in, out any, retryable bool) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = b
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 || !retryable {
		attempts = 1
	}
	var lastErr error
	serverHint := retryAfterSentinel
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			obs.Add(obs.CClientRetry, 1)
			select {
			case <-time.After(c.backoff(attempt, serverHint)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err, hint, retry := c.attempt(ctx, method, path, body, in != nil, out)
		if err == nil {
			return nil
		}
		if !retry || ctx.Err() != nil {
			return err
		}
		lastErr, serverHint = err, hint
	}
	return lastErr
}

// backoff computes the pre-attempt sleep: exponential with ±50%
// jitter, floored by the server's Retry-After hint when one was given.
func (c *Client) backoff(attempt int, serverHint time.Duration) time.Duration {
	d := c.Retry.BaseDelay
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	if max := c.Retry.MaxDelay; max > 0 && d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	if serverHint > d {
		d = serverHint
	}
	return d
}

// attempt runs one HTTP exchange. retry reports whether the failure
// class is safe to try again; hint carries a Retry-After the server
// sent (retryAfterSentinel when absent).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, hasBody bool, out any) (err error, hint time.Duration, retry bool) {
	fault.SleepAt(fault.ClientStall)
	if ferr := fault.ErrAt(fault.ClientReset); ferr != nil {
		return fmt.Errorf("client: connection reset: %w", ferr), retryAfterSentinel, true
	}
	if ferr := fault.ErrAt(fault.Client5xx); ferr != nil {
		return &APIError{Status: http.StatusServiceUnavailable, Message: ferr.Error()}, 0, true
	}
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err, retryAfterSentinel, false
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		// Transport-level failure: nothing reached the handler, or the
		// response was lost — safe to retry a request that may be sent
		// again.
		return err, retryAfterSentinel, true
	}
	defer closeBody(resp.Body)
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: msg}
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			hint = retryAfterSentinel
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
					hint = time.Duration(secs) * time.Second
				}
			}
			return apiErr, hint, true
		}
		return apiErr, retryAfterSentinel, false
	}
	if out == nil {
		return nil, retryAfterSentinel, false
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err, retryAfterSentinel, false
	}
	return nil, retryAfterSentinel, false
}

// drainLimit bounds how much of a response closeBody reads past what
// the caller used: every status envelope and error body the daemon
// writes fits, and a server streaming more cannot hold the client.
const drainLimit = 1 << 16

// closeBody reads what is left of a response body, up to drainLimit,
// and closes it. net/http returns a keep-alive connection to the idle
// pool only once its body has been read to EOF; closing it unread (a
// Reset or Release answer, the tail of a chunked answer after its JSON
// value, an error body) drops the connection, and the next request
// dials a new one.
func closeBody(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainLimit)) // a short read only costs the connection
	body.Close()
}

// Experiments lists the registry.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out []ExperimentInfo
	if err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunExperiments runs a figures.All() selection on the daemon. A retry
// after a dropped response runs the selection again, which renders the
// same output.
func (c *Client) RunExperiments(ctx context.Context, req ExperimentsRequest) (*ExperimentsResponse, error) {
	var out ExperimentsResponse
	if err := c.send(ctx, http.MethodPost, "/v1/experiments", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunCampaign runs a differential attack campaign on the daemon,
// retried like RunExperiments.
func (c *Client) RunCampaign(ctx context.Context, req CampaignRequest) (*CampaignResponse, error) {
	var out CampaignResponse
	if err := c.send(ctx, http.MethodPost, "/v1/campaigns", req, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats reads the daemon's pool/queue/lease counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Machine is a leased warm machine on the daemon.
type Machine struct {
	c *Client
	// ID is the lease identifier; Key the pool key the machine was
	// acquired under; BootCycles the captured boot cost it inherited.
	ID         string
	Key        string
	BootCycles uint64
}

// Lease acquires a warm machine from the daemon's pool. Release it when
// done; the daemon's idle reaper reclaims abandoned leases.
func (c *Client) Lease(ctx context.Context, req MachineRequest) (*Machine, error) {
	var out MachineResponse
	if err := c.do(ctx, http.MethodPost, "/v1/machines", req, &out); err != nil {
		return nil, err
	}
	return &Machine{c: c, ID: out.ID, Key: out.Key, BootCycles: out.BootCycles}, nil
}

// Run steps the machine by an instruction budget.
func (m *Machine) Run(ctx context.Context, maxInstrs uint64) (*MachineRunResponse, error) {
	var out MachineRunResponse
	err := m.c.do(ctx, http.MethodPost, "/v1/machines/"+m.ID+"/run",
		MachineRunRequest{MaxInstrs: maxInstrs}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// State reads back registers, console output and the fault log.
func (m *Machine) State(ctx context.Context) (*MachineState, error) {
	var out MachineState
	if err := m.c.do(ctx, http.MethodGet, "/v1/machines/"+m.ID, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reset rewinds the machine to its lease-time snapshot.
func (m *Machine) Reset(ctx context.Context) error {
	return m.c.do(ctx, http.MethodPost, "/v1/machines/"+m.ID+"/reset", nil, nil)
}

// Release hands the machine back to the daemon's warm pool.
func (m *Machine) Release(ctx context.Context) error {
	return m.c.do(ctx, http.MethodPost, "/v1/machines/"+m.ID+"/release", nil, nil)
}
