// Package server implements camouflaged, the long-running simulation
// service daemon (DESIGN.md §8). It serves the paper's evaluation
// artefacts over HTTP/JSON from the process-wide warm pool of booted
// machines, snapshot.Shared: experiment runs (the figures.All()
// registry), differential attack campaigns, and machine leases that let
// a client step a warm forked kernel interactively. A bounded work
// queue sheds load instead of queueing unboundedly; concurrent requests
// for one configuration share a single boot in the pool and fan out as
// copy-on-write forks; request deadlines and the run
// watchdog cancel work between experiments, cells, matrix rows and
// strikes; SIGTERM drains gracefully.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"camouflage/client"
	"camouflage/internal/attack"
	"camouflage/internal/core"
	"camouflage/internal/fault"
	"camouflage/internal/figures"
	"camouflage/internal/kernel"
	"camouflage/internal/obs"
	"camouflage/internal/snapshot"
	"camouflage/internal/store"
)

// requestsVec counts HTTP requests by endpoint pattern and status
// class (2xx/4xx/5xx…).
var requestsVec = obs.NewVec("camouflage_server_requests_total",
	"HTTP requests by endpoint and status class.")

// statusRecorder captures the status a handler wrote (200 when the
// handler never called WriteHeader explicitly) and whether a header was
// committed — the panic barrier must not WriteHeader twice.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// instrument wraps a handler with per-endpoint request accounting — a
// requests_total{endpoint,code} counter and a latency histogram
// labelled by the route pattern, labels pre-rendered at registration so
// the request path never formats strings — and with the per-job panic
// barrier: a panicking handler answers 500 and is counted, the daemon
// survives. Handler defers (queue-slot release, job end) run during the
// unwind as usual, so a recovered panic leaks no admission state.
func instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	hist := obs.NewHistogramLabels("camouflage_server_request_seconds",
		"HTTP request latency by endpoint.",
		fmt.Sprintf("endpoint=%q", pattern), obs.DefaultLatencyBuckets)
	var classLabels [6]string
	for class := 1; class <= 5; class++ {
		classLabels[class] = fmt.Sprintf(`endpoint=%q,code="%dxx"`, pattern, class)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				obs.Add(obs.CPanicRecovered, 1)
				if !rec.wrote {
					writeErr(rec, http.StatusInternalServerError,
						fmt.Sprintf("internal panic (recovered): %v", v))
				} else {
					rec.status = http.StatusInternalServerError
				}
			}
			hist.ObserveSince(t0)
			if class := rec.status / 100; class >= 1 && class <= 5 {
				requestsVec.Cell(classLabels[class]).Add(1)
			}
		}()
		h(rec, r)
	}
}

// Config tunes a Server. Zero values select the documented defaults.
// Every machine the daemon runs — leased, experiment or campaign — comes
// from snapshot.Shared.
type Config struct {
	// Concurrency is how many admitted jobs run at once (default 4).
	Concurrency int
	// MaxQueue bounds jobs waiting for a slot; beyond it requests are
	// rejected with 503 (default 32).
	MaxQueue int
	// MaxLeases bounds simultaneously checked-out machines (default 64).
	MaxLeases int
	// LeaseIdle is how long an untouched lease survives before the
	// reaper returns its machine to the pool (default 10m; <0 disables).
	LeaseIdle time.Duration
	// Store is the persistent snapshot store behind -store-dir (nil: the
	// daemon is memory-only and the /v1/snapshots surface answers 503).
	// The caller wires the same store into snapshot.Shared.
	Store *store.Store
	// JobTimeout is the run watchdog's wall budget: an experiment or
	// campaign running past it is cancelled (504). 0 disables the
	// watchdog (tests, ad-hoc use); the daemon defaults it on.
	JobTimeout time.Duration
}

// Server is the daemon. It implements http.Handler.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queue  *queue
	leases *leaseTable
	start  time.Time

	drainMu  sync.Mutex
	draining bool
	jobs     sync.WaitGroup
}

// New builds a Server around cfg.
func New(cfg Config) *Server {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 32
	}
	if cfg.MaxLeases <= 0 {
		cfg.MaxLeases = 64
	}
	if cfg.LeaseIdle == 0 {
		cfg.LeaseIdle = 10 * time.Minute
	}
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		queue:  newQueue(cfg.Concurrency, cfg.MaxQueue),
		leases: newLeaseTable(cfg.MaxLeases, cfg.LeaseIdle),
		start:  time.Now(),
	}
	for _, route := range []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /healthz", s.handleHealthz},
		{"GET /readyz", s.handleReadyz},
		{"GET /v1/experiments", s.handleListExperiments},
		{"POST /v1/experiments", s.handleExperiments},
		{"POST /v1/campaigns", s.handleCampaigns},
		{"POST /v1/machines", s.handleLease},
		{"GET /v1/machines/{id}", s.handleMachineState},
		{"POST /v1/machines/{id}/run", s.handleMachineRun},
		{"POST /v1/machines/{id}/reset", s.handleMachineReset},
		{"POST /v1/machines/{id}/release", s.handleMachineRelease},
		{"GET /v1/runs/{id}/trace", s.handleRunTrace},
		{"GET /v1/snapshots", s.handleListSnapshots},
		{"GET /v1/snapshots/{digest}", s.handleSnapshotManifest},
		{"DELETE /v1/snapshots/{digest}", s.handleSnapshotDelete},
		{"GET /v1/stats", s.handleStats},
		{"GET /metrics", s.handleMetrics},
	} {
		s.mux.HandleFunc(route.pattern, instrument(route.pattern, route.h))
	}
	// Instantaneous readings, read at scrape time. Registration replaces
	// by name, so the newest Server instance owns the gauges (tests
	// construct several; the daemon exactly one).
	obs.RegisterGauge("camouflage_server_queue_depth",
		"Jobs waiting for an execution slot.", func() float64 {
			d := s.queue.inSystem.Load() - s.queue.running.Load()
			if d < 0 {
				d = 0
			}
			return float64(d)
		})
	obs.RegisterGauge("camouflage_server_jobs_running",
		"Jobs holding an execution slot.", func() float64 {
			return float64(s.queue.running.Load())
		})
	obs.RegisterGauge("camouflage_server_leases_active",
		"Machine leases currently checked out.", func() float64 {
			return float64(s.leases.stats().Active)
		})
	obs.RegisterGauge("camouflage_snapshot_pool_idle",
		"Idle machines parked in the warm pool.", func() float64 {
			return float64(snapshot.Shared.Stats().Idle)
		})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting work, waits for in-flight jobs (bounded by
// ctx), hands every active lease back to the pool and evicts the pool's
// idle machines. After Drain the Server answers reads but rejects all
// mutating requests with 503.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.leases.releaseAll()
	snapshot.Shared.EvictIdle()
	// Background snapshot persists must land before the process exits,
	// or the next start pays boots the store was meant to absorb.
	snapshot.Shared.WaitPersist()
	return err
}

// LeaseStats snapshots the lease lifecycle counters (the daemon logs
// them after a drain).
func (s *Server) LeaseStats() client.LeaseStats { return s.leases.stats() }

// beginJob admits one mutating request unless the daemon is draining.
// The matching endJob must run when the work finishes.
func (s *Server) beginJob() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.jobs.Add(1)
	return true
}

func (s *Server) endJob() { s.jobs.Done() }

// --- plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// readJSON decodes the request body: one JSON value, and nothing after
// it but white space (an empty body decodes to the zero value, for curl
// convenience). Unknown fields are ignored. It answers 400 itself on
// malformed JSON or trailing data and reports whether the handler may
// proceed.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); !errors.Is(terr, io.EOF) {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// withDeadline applies a client-requested deadline to the request
// context.
func withDeadline(r *http.Request, ms int64) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
}

// errWatchdog is the cancellation cause stamped by the run watchdog.
var errWatchdog = errors.New("server: job exceeded wall budget (watchdog)")

// watchJob layers the watchdog's wall budget onto a job context, with
// errWatchdog as the cause so the error path can tell a watchdog kill
// from a client deadline.
func (s *Server) watchJob(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.JobTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, s.cfg.JobTimeout, errWatchdog)
}

// failRun maps a job error to its HTTP status: deadline expiry and
// client cancellation are 504/499-ish (both reported 504 for
// simplicity), everything else — a boot that failed every attempt
// included — 500.
func failRun(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeErr(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	writeErr(w, http.StatusInternalServerError, err.Error())
}

// failRunCtx is failRun plus watchdog attribution: a context the
// watchdog cancelled reports the watchdog, not a generic timeout.
func failRunCtx(ctx context.Context, w http.ResponseWriter, err error) {
	if cause := context.Cause(ctx); errors.Is(cause, errWatchdog) {
		obs.Add(obs.CWatchdogCancel, 1)
		writeErr(w, http.StatusGatewayTimeout, errWatchdog.Error())
		return
	}
	failRun(w, err)
}

// admit runs the common admission path: drain check, queue slot with
// deadline, post-admission deadline re-check (a request that spent its
// whole budget waiting must not start). On failure it has already
// answered; the caller proceeds only when done != nil and must defer
// done().
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (done func()) {
	if !s.beginJob() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return nil
	}
	release, err := s.queue.acquire(ctx)
	if err != nil {
		s.endJob()
		if errors.Is(err, errBusy) {
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		} else {
			failRun(w, err)
		}
		return nil
	}
	if err := ctx.Err(); err != nil {
		release()
		s.endJob()
		failRun(w, err)
		return nil
	}
	return func() {
		release()
		s.endJob()
	}
}

// validCPUs answers 400 unless n is a vCPU count a machine can boot
// with (0..kernel.MaxCPUs, 0 meaning uniprocessor). A bad count is the
// client's mistake: admitted, it would take a queue slot only to fail
// every boot attempt.
func validCPUs(w http.ResponseWriter, n int) bool {
	if n < 0 || n > kernel.MaxCPUs {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("cpus %d out of range 0..%d", n, kernel.MaxCPUs))
		return false
	}
	return true
}

// --- experiments ---

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	var out []client.ExperimentInfo
	for _, e := range figures.All() {
		out = append(out, client.ExperimentInfo{
			ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Levels: e.Levels,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req client.ExperimentsRequest
	if !readJSON(w, r, &req) {
		return
	}
	for _, id := range req.IDs {
		if _, ok := figures.Lookup(id); !ok {
			writeErr(w, http.StatusBadRequest, "unknown experiment "+id)
			return
		}
	}
	if !validCPUs(w, req.CPUs) {
		return
	}
	ctx, cancel := withDeadline(r, req.DeadlineMS)
	defer cancel()
	ctx, cancelWatch := s.watchJob(ctx)
	defer cancelWatch()
	done := s.admit(ctx, w)
	if done == nil {
		return
	}
	defer done()
	fault.PanicAt(fault.ServerJob) // chaos probe for the panic barrier

	// Sole-occupancy bracket for the Exact decision below: queue.starts
	// already includes this job's own start, so an unchanged count at
	// the end means no other job began while this one ran.
	startsBefore := s.queue.starts.Load()
	soleAtStart := s.queue.running.Load() == 1

	run := obs.BeginRun("experiments", strings.Join(req.IDs, ","))
	defer run.End()

	var buf strings.Builder
	t0 := time.Now()
	stats, err := figures.RunAllWith(ctx, &buf, figures.RunOptions{
		IDs: req.IDs, CPUs: req.CPUs, Trace: run,
	})
	if err != nil {
		failRunCtx(ctx, w, err)
		return
	}
	// Cycle/instruction attribution in RunStats comes from process-wide
	// counters, so any overlapping job (another experiments run, a
	// campaign, a lease step) pollutes the deltas. A run that provably
	// ran alone — sole slot holder at start, no new starts since —
	// keeps the exactness figures computed; anything else is stamped
	// inexact.
	if !soleAtStart || s.queue.starts.Load() != startsBefore {
		for i := range stats {
			stats[i].Exact = false
		}
	}
	writeJSON(w, http.StatusOK, client.ExperimentsResponse{
		Output:      buf.String(),
		TotalWallNs: time.Since(t0).Nanoseconds(),
		Pool:        snapshot.Shared.Stats(),
		Experiments: stats,
		RunID:       run.ID(),
	})
}

// --- campaigns ---

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	var req client.CampaignRequest
	if !readJSON(w, r, &req) {
		return
	}
	// Validate the level filter and the sizes up front: a typo is the
	// client's mistake (400), not a server failure, and a mutation count
	// past the bound would allocate per-strike state the process cannot
	// hold before any deadline could stop it.
	for _, name := range req.Levels {
		if _, err := attack.LevelByName(name); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if req.Mutations > maxCampaignMutations {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("mutations %d above the bound %d", req.Mutations, maxCampaignMutations))
		return
	}
	if !validCPUs(w, req.CPUs) {
		return
	}
	ctx, cancel := withDeadline(r, req.DeadlineMS)
	defer cancel()
	ctx, cancelWatch := s.watchJob(ctx)
	defer cancelWatch()
	done := s.admit(ctx, w)
	if done == nil {
		return
	}
	defer done()
	fault.PanicAt(fault.ServerJob)

	run := obs.BeginRun("campaign", strings.Join(req.Levels, ","))
	defer run.End()

	t0 := time.Now()
	rep, err := attack.RunCampaignContext(ctx, attack.CampaignOptions{
		Mutations: req.Mutations,
		Seed:      req.Seed,
		Levels:    req.Levels,
		CPUs:      req.CPUs,
	})
	if err != nil {
		failRunCtx(ctx, w, err)
		return
	}
	run.Phase("campaign", time.Since(t0))
	var buf strings.Builder
	rep.Render(&buf)
	writeJSON(w, http.StatusOK, client.CampaignResponse{
		Report:      rep,
		Output:      buf.String(),
		TotalWallNs: time.Since(t0).Nanoseconds(),
		RunID:       run.ID(),
	})
}

// --- machine leases ---

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req client.MachineRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Level == "" {
		req.Level = "full"
	}
	level, err := core.LevelByName(req.Level)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if !validCPUs(w, req.CPUs) {
		return
	}
	kopts := core.KernelOptionsFor(level, core.Options{
		Seed:             req.Seed,
		FailureThreshold: req.FailureThreshold,
		Compat:           req.Compat,
		CPUs:             req.CPUs,
	})
	key := snapshot.KeyFor(kopts)

	done := s.admit(r.Context(), w)
	if done == nil {
		return
	}
	defer done()

	s.leases.reap()
	m, err := snapshot.Shared.Acquire(key, snapshot.BootOptions(kopts))
	if err != nil {
		failRun(w, err)
		return
	}
	l, err := s.leases.add(m)
	if err != nil {
		m.Release()
		writeErr(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, client.MachineResponse{
		ID:         l.id,
		Key:        key.Norm(),
		BootCycles: l.m.Snap.BootCycles(),
	})
}

// withLease looks up a lease and runs f while holding the lease's
// operation lock (machines are single-core; operations serialize). The
// released flag is re-checked under the lock: a release or reap racing
// with the lookup must not let f step a machine already handed back to
// the pool — and possibly re-issued to another client.
func (s *Server) withLease(w http.ResponseWriter, r *http.Request, f func(l *lease)) {
	l, ok := s.leases.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such machine lease")
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		writeErr(w, http.StatusNotFound, "no such machine lease")
		return
	}
	l.touch()
	f(l)
	l.touch()
}

// maxRunBudget caps one /run step so a single request cannot wedge a
// queue slot arbitrarily long; longer runs loop on the client side.
const maxRunBudget = 500_000_000

// maxCampaignMutations bounds one campaign's strikes per cell. The
// runner sizes its per-cell result arrays by the count, so an unchecked
// count can exhaust memory, which no panic barrier recovers.
const maxCampaignMutations = 4096

func (s *Server) handleMachineRun(w http.ResponseWriter, r *http.Request) {
	var req client.MachineRunRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.MaxInstrs == 0 {
		req.MaxInstrs = 1_000_000
	}
	if req.MaxInstrs > maxRunBudget {
		req.MaxInstrs = maxRunBudget
	}
	// Lease runs are simulation work like any other: they take a queue
	// slot, so N clients stepping leases cannot oversubscribe the daemon
	// past its configured concurrency.
	if _, ok := s.leases.get(r.PathValue("id")); !ok {
		writeErr(w, http.StatusNotFound, "no such machine lease")
		return
	}
	done := s.admit(r.Context(), w)
	if done == nil {
		return
	}
	defer done()
	s.withLease(w, r, func(l *lease) {
		run := obs.BeginRun("machine-run", l.id)
		defer run.End()
		k := l.m.K
		t0 := time.Now()
		stop := k.Run(req.MaxInstrs)
		run.Phase("run", time.Since(t0))
		resp := client.MachineRunResponse{
			Stop:        stopName(stop.Kind),
			StopCode:    stop.Code,
			PC:          k.CPU.PC,
			Cycles:      k.CPU.Cycles,
			Instrs:      k.CPU.Retired,
			Halted:      k.Halted,
			PACFailures: k.PACFailures,
			RunID:       run.ID(),
		}
		if stop.Err != nil {
			// The machine survives; the error is part of the result.
			resp.Error = stop.Err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

func (s *Server) handleMachineState(w http.ResponseWriter, r *http.Request) {
	s.withLease(w, r, func(l *lease) {
		k := l.m.K
		st := client.MachineState{
			ID:          l.id,
			Key:         l.m.Key().Norm(),
			PC:          k.CPU.PC,
			SP:          [2]uint64{k.CPU.SP(0), k.CPU.SP(1)},
			EL:          k.CPU.EL,
			X:           append([]uint64(nil), k.CPU.X[:]...),
			Cycles:      k.CPU.Cycles,
			Instrs:      k.CPU.Retired,
			Halted:      k.Halted,
			PACFailures: k.PACFailures,
			UART:        k.UART.Output(),
		}
		for _, o := range k.Oops {
			st.Oops = append(st.Oops, client.OopsRecord{
				ESR: o.ESR, FAR: o.FAR, ELR: o.ELR,
				Kernel: o.Kernel, PACFailure: o.PACFailure,
			})
		}
		writeJSON(w, http.StatusOK, st)
	})
}

func (s *Server) handleMachineReset(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.leases.get(r.PathValue("id")); !ok {
		writeErr(w, http.StatusNotFound, "no such machine lease")
		return
	}
	done := s.admit(r.Context(), w)
	if done == nil {
		return
	}
	defer done()
	s.withLease(w, r, func(l *lease) {
		if err := l.m.Snap.Reset(l.m.K); err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "reset"})
	})
}

func (s *Server) handleMachineRelease(w http.ResponseWriter, r *http.Request) {
	// Release works even while draining: clients handing machines back
	// is exactly what drain wants.
	l, ok := s.leases.take(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such machine lease")
		return
	}
	l.release()
	obs.Add(obs.CLeaseReleased, 1)
	writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
}

// --- health surface ---

// handleHealthz is liveness: the process is up and serving HTTP. It
// never degrades — a draining or saturated daemon is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start).Nanoseconds(),
	})
}

// readyCheck is one /readyz probe result.
type readyCheck struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// handleReadyz is readiness: should a load balancer send this daemon
// work right now? Degraded (503) while draining, while the admission
// queue is saturated, or when the snapshot store directory is
// unreachable. A key whose boots fail answers its own requests 500 and
// leaves the daemon ready for every other key.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := map[string]readyCheck{}

	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	checks["draining"] = readyCheck{OK: !draining, Detail: map[bool]string{true: "draining", false: ""}[draining]}

	qs := s.queue.stats()
	saturated := qs.Depth >= qs.MaxQueue
	checks["queue"] = readyCheck{OK: !saturated,
		Detail: fmt.Sprintf("%d/%d waiting, %d/%d running", qs.Depth, qs.MaxQueue, qs.Running, qs.Capacity)}

	storeCheck := readyCheck{OK: true, Detail: "no store configured"}
	if s.cfg.Store != nil {
		if _, err := os.Stat(s.cfg.Store.Dir()); err != nil {
			storeCheck = readyCheck{OK: false, Detail: err.Error()}
		} else {
			storeCheck = readyCheck{OK: true, Detail: s.cfg.Store.Dir()}
		}
	}
	checks["store"] = storeCheck

	ready := true
	for _, c := range checks {
		ready = ready && c.OK
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "checks": checks})
}

// --- stats ---

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.leases.reap()
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	writeJSON(w, http.StatusOK, client.StatsResponse{
		Pool:     snapshot.Shared.Stats(),
		Queue:    s.queue.stats(),
		Leases:   s.leases.stats(),
		Draining: draining,
		UptimeNs: time.Since(s.start).Nanoseconds(),
		Metrics:  obs.TakeSnapshot(),
	})
}

// --- observability ---

// handleMetrics serves the whole registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w)
}

// handleRunTrace serves the structured trace of a recent run (IDs come
// back in the run_id field of experiment, campaign and machine-run
// responses; the store keeps the most recent 256).
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := obs.RunTraceByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, tr)
}
