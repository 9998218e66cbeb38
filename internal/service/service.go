// Package service hosts one shared scenario.Engine behind an HTTP/JSON
// job API — the resident counterpart to the one-shot toposcenario CLI.
// A Server owns a bounded job queue drained by a fixed executor pool;
// submitted specs are the existing scenario JSON round-trip format (a
// single object, an array, or {"scenarios": [...]}), so anything the
// CLI runs locally can be mailed to a daemon unchanged and the results
// come back byte-identical.
//
// Endpoints:
//
//	POST   /v1/jobs      submit a spec document -> 202 {"id": "job-N", ...}
//	GET    /v1/jobs      list job statuses (without results)
//	GET    /v1/jobs/{id} poll one job; running jobs stream the contiguous
//	                     completed replication prefix per scenario
//	DELETE /v1/jobs/{id} cancel (queued or running)
//	GET    /v1/registry  models/metrics/attacks/traffic with param specs
//	GET    /v1/statusz   uptime, snapshot-cache counters, job counters
//
// Validation failures map to 400 and always wrap errs.ErrBadParam; a
// full queue maps to 429; a draining server refuses new work with 503.
// Shutdown stops intake, drains queued and running jobs, and — if its
// context expires first — cancels in-flight engine work through the
// threaded context.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/metricreg"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/trafficreg"
)

// maxSpecBytes bounds a submitted spec document; anything larger is a
// bad request, not an allocation.
const maxSpecBytes = 8 << 20

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCanceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether state is one a job never leaves.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobStatus is the wire representation of one job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Scenarios and Reps describe the submitted work: scenario count
	// and total (scenario, replication) units.
	Scenarios int `json:"scenarios"`
	Reps      int `json:"reps"`
	// Completed counts finished units. It reaches Reps only on done.
	Completed int `json:"completed"`
	// Error carries the failure or cancellation cause on terminal
	// non-done states.
	Error string `json:"error,omitempty"`
	// Results holds per-scenario output in submission order. While the
	// job runs it is the deterministically-streamed view: each
	// scenario's Reps is the contiguous prefix of completed
	// replications (later out-of-order completions stay hidden until
	// the gap fills). Terminal states carry the engine's final results
	// — trimmed and marked Partial on failure or cancellation. The list
	// endpoint omits it.
	Results []*scenario.Result `json:"results,omitempty"`
}

// JobStats aggregates job counters for statusz.
type JobStats struct {
	Submitted int `json:"submitted"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
}

// Statusz is the monitoring snapshot.
type Statusz struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Draining      bool                `json:"draining"`
	Cache         scenario.CacheStats `json:"cache"`
	Jobs          JobStats            `json:"jobs"`
}

// ComponentInfo is one registered component: its canonical name and
// declared parameter interface.
type ComponentInfo struct {
	Name   string        `json:"name"`
	Params []params.Spec `json:"params,omitempty"`
}

// RegistryInfo enumerates everything a scenario spec can name.
type RegistryInfo struct {
	Models  []ComponentInfo `json:"models"`
	Metrics []ComponentInfo `json:"metrics"`
	Attacks []ComponentInfo `json:"attacks"`
	Traffic []ComponentInfo `json:"traffic"`
}

// Config tunes a Server. The zero value is usable: a default engine, a
// 64-deep queue, and two executors.
type Config struct {
	// Engine is the shared engine all jobs run on (nil means a fresh
	// NewEngine(nil)).
	Engine *scenario.Engine
	// MaxQueue bounds jobs accepted but not yet running (default 64).
	MaxQueue int
	// Executors is the number of jobs run concurrently (default 2; a
	// negative value starts none, for tests that need jobs to stay
	// queued).
	Executors int
	// JobWorkers is the engine worker bound per job (scenario.Options.
	// Workers; <= 0 means GOMAXPROCS).
	JobWorkers int
	// JobTimeout bounds one job's execution (0 = no limit).
	JobTimeout time.Duration
}

// job is the server-side state of one submission.
type job struct {
	id    string
	specs []scenario.Scenario

	mu        sync.Mutex
	state     string
	err       error
	cancel    context.CancelFunc // non-nil only while running
	reps      [][]scenario.RepResult
	done      [][]bool
	completed int
	total     int
	final     []*scenario.Result // set on terminal states that ran
}

// progress records one completed unit; the engine calls it from worker
// goroutines.
func (j *job) progress(si, rep int, rr scenario.RepResult) {
	j.mu.Lock()
	j.reps[si][rep] = rr
	j.done[si][rep] = true
	j.completed++
	j.mu.Unlock()
}

// status snapshots the job. includeResults selects between the cheap
// listing form and the full polling form.
func (j *job) status(includeResults bool) *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:        j.id,
		State:     j.state,
		Scenarios: len(j.specs),
		Reps:      j.total,
		Completed: j.completed,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !includeResults {
		return st
	}
	switch {
	case j.final != nil:
		st.Results = j.final
	case j.state == StateRunning:
		// Stream the contiguous completed prefix per scenario — the
		// same deterministic trimming the engine applies to cut-short
		// batches, so pollers see replications in order regardless of
		// worker scheduling.
		st.Results = make([]*scenario.Result, len(j.specs))
		for si := range j.specs {
			k := 0
			for k < len(j.done[si]) && j.done[si][k] {
				k++
			}
			st.Results[si] = &scenario.Result{
				Scenario: j.specs[si],
				Reps:     append([]scenario.RepResult(nil), j.reps[si][:k]...),
			}
		}
	}
	return st
}

// Server hosts one engine behind the job API. Create with New; it
// implements http.Handler.
type Server struct {
	eng        *scenario.Engine
	jobWorkers int
	jobTimeout time.Duration
	mux        *http.ServeMux
	started    time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	queue    chan *job
	draining bool
	wg       sync.WaitGroup // executors
}

// New builds a Server over cfg and starts its executor pool.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = scenario.NewEngine(nil)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	executors := cfg.Executors
	if executors == 0 {
		executors = 2
	}
	if executors < 0 {
		executors = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:        cfg.Engine,
		jobWorkers: cfg.JobWorkers,
		jobTimeout: cfg.JobTimeout,
		started:    time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, cfg.MaxQueue),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /v1/statusz", s.handleStatusz)
	for i := 0; i < executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops accepting jobs and drains the queue and every running
// job. If ctx expires first, in-flight engine work is canceled through
// its context and Shutdown returns the expiry; either way no executor
// is left running when it returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return fmt.Errorf("service: drain aborted: %w", errs.Ctx(ctx))
	}
}

func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if s.jobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.jobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()

	results, err := s.eng.RunBatch(ctx, j.specs, scenario.Options{
		Workers:  s.jobWorkers,
		Progress: j.progress,
	})

	j.mu.Lock()
	j.cancel = nil
	j.final = results
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, errs.ErrCanceled):
		j.state = StateCanceled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.mu.Unlock()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: read spec: %v", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusBadRequest,
			errs.BadParamf("service: spec document over %d bytes", maxSpecBytes))
		return
	}
	specs, err := scenario.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for i := range specs {
		if err := specs[i].Validate(s.eng.Registry()); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	total, err := scenario.BatchReps(specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The per-rep storage is built before s.mu is taken, so no other
	// request waits on these allocations.
	j := &job{
		specs: specs,
		state: StateQueued,
		total: total,
		reps:  make([][]scenario.RepResult, len(specs)),
		done:  make([][]bool, len(specs)),
	}
	for i := range specs {
		j.reps[i] = make([]scenario.RepResult, specs[i].NumReps())
		j.done[i] = make([]bool, specs[i].NumReps())
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("service: draining, not accepting jobs"))
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	// Render the reply before the enqueue: an executor may pick the job
	// up at once and finish it before this handler writes, and the 202
	// must report the state the job was accepted in.
	accepted := j.status(false)
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("service: job queue full (%d queued)", cap(s.queue)))
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, accepted)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = fmt.Errorf("service: canceled before running: %w", errs.ErrCanceled)
	case StateRunning:
		// The engine observes the context; the executor records the
		// terminal state when RunBatch returns.
		j.cancel()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, j.status(false))
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registryInfo())
}

func (s *Server) registryInfo() *RegistryInfo {
	return &RegistryInfo{
		Models:  components(s.eng.Registry().Registry),
		Metrics: components(metricreg.Default().Registry),
		Attacks: components(attackreg.Default()),
		Traffic: components(trafficreg.Default().Registry),
	}
}

// components lists a registry's components with their parameter specs,
// sorted by name.
func components[T params.Component](r *params.Registry[T]) []ComponentInfo {
	var out []ComponentInfo
	for _, name := range r.Names() {
		if c, err := r.Lookup(name); err == nil {
			out = append(out, ComponentInfo{Name: name, Params: c.Params()})
		}
	}
	return out
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := &Statusz{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Cache:         s.eng.CacheStats(),
	}
	s.mu.Lock()
	st.Draining = s.draining
	st.Jobs.Submitted = len(s.jobs)
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StateQueued:
			st.Jobs.Queued++
		case StateRunning:
			st.Jobs.Running++
		case StateDone:
			st.Jobs.Done++
		case StateFailed:
			st.Jobs.Failed++
		case StateCanceled:
			st.Jobs.Canceled++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
