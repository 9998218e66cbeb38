package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scenario"
)

// newTestServer starts a Server over cfg behind an httptest listener
// and returns it with a client; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		hs.Close()
	})
	c := NewClient(hs.URL, hs.Client())
	c.PollInterval = 5 * time.Millisecond
	return s, c
}

func testSpecs() []scenario.Scenario {
	return []scenario.Scenario{
		{
			Name:     "degrees",
			Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 80}},
			Measure:  &scenario.MeasureSpec{Degrees: true},
			Seeds:    []int64{1, 2},
		},
		{
			Name:     "routed",
			Generate: scenario.GenerateSpec{Model: "waxman", Params: scenario.Params{"n": 60}},
			Route:    &scenario.RouteSpec{Demands: 20},
			Reps:     2,
		},
	}
}

// TestSubmitPollResultsMatchLocalEngine is the acceptance criterion:
// results fetched through the service are byte-identical (as JSON) to a
// direct local RunBatch of the same specs.
func TestSubmitPollResultsMatchLocalEngine(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	specs := testSpecs()

	st, err := c.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("submit returned %+v", st)
	}
	if st.Scenarios != 2 || st.Reps != 4 {
		t.Fatalf("submit counted %d scenarios / %d reps, want 2 / 4", st.Scenarios, st.Reps)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Completed != 4 || final.Error != "" {
		t.Fatalf("final status %+v", final)
	}

	local, err := scenario.NewEngine(nil).RunBatch(ctx, specs, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, err := json.Marshal(final.Results)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if string(remoteJSON) != string(localJSON) {
		t.Fatalf("service results differ from local engine:\n--- remote ---\n%s\n--- local ---\n%s",
			remoteJSON, localJSON)
	}
}

// TestSubmitReportsQueued pins the 202 body to the state the job was
// accepted in. A trivial job on a server with several idle executors
// can finish before the handler writes its response, and the body must
// still read queued.
func TestSubmitReportsQueued(t *testing.T) {
	const clients, submits = 16, 300
	_, c := newTestServer(t, Config{Executors: 4, MaxQueue: clients * submits})
	ctx := context.Background()
	spec := []scenario.Scenario{{Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 10}}}}
	var wg sync.WaitGroup
	errsCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < submits; k++ {
				st, err := c.Submit(ctx, spec)
				if err == nil && st.State != StateQueued {
					err = fmt.Errorf("submit returned state %q, want %q", st.State, StateQueued)
				}
				if err != nil {
					errsCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Fatal(err)
	}
}

// TestConcurrentSubmissionsSingleGeneration submits the same topology
// identity from many concurrent clients and asserts the shared engine
// generated it exactly once.
func TestConcurrentSubmissionsSingleGeneration(t *testing.T) {
	var calls atomic.Int64
	reg := scenario.NewRegistry()
	if err := reg.Register(&scenario.FuncGenerator{
		GenName: "counted",
		GenParams: []scenario.ParamSpec{
			{Name: "n", Kind: scenario.Int, Default: 64},
			{Name: "seed", Kind: scenario.Int, Default: 1},
		},
		Fn: func(ctx context.Context, p scenario.Params) (*graph.Graph, error) {
			calls.Add(1)
			return gen.BarabasiAlbert(p.Int("n"), 2, p.Seed())
		},
	}); err != nil {
		t.Fatal(err)
	}
	eng := scenario.NewEngine(reg)
	_, c := newTestServer(t, Config{Engine: eng, Executors: 8})

	ctx := context.Background()
	spec := scenario.Scenario{
		Generate: scenario.GenerateSpec{Model: "counted"},
		Measure:  &scenario.MeasureSpec{Degrees: true},
		Reps:     3,
	}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	errsCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(ctx, []scenario.Scenario{spec})
			if err != nil {
				errsCh <- err
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Fatal(err)
	}
	var ref string
	for i, id := range ids {
		final, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("job %s state %s: %s", id, final.State, final.Error)
		}
		got, err := json.Marshal(final.Results)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = string(got)
		} else if string(got) != ref {
			t.Fatalf("job %s results differ from job %s", id, ids[0])
		}
	}
	// Reps 0..2 share derivation from one base seed identity per rep:
	// 3 distinct identities, each generated exactly once across all 8
	// concurrent jobs.
	if got := calls.Load(); got != 3 {
		t.Fatalf("generator ran %d times across %d concurrent jobs, want 3", got, n)
	}
	st, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 3 || st.Cache.Hits+st.Cache.Coalesced == 0 || st.Cache.InFlight != 0 {
		t.Fatalf("cache stats %+v", st.Cache)
	}
}

// blockingRegistry registers "fast" (a quick BA topology) and "block"
// (parks until its context is canceled) for cancellation tests.
func blockingRegistry(t *testing.T, started chan<- struct{}) *scenario.Registry {
	t.Helper()
	reg := scenario.NewRegistry()
	seed := scenario.ParamSpec{Name: "seed", Kind: scenario.Int, Default: 1}
	if err := reg.Register(&scenario.FuncGenerator{
		GenName:   "fast",
		GenParams: []scenario.ParamSpec{seed},
		Fn: func(ctx context.Context, p scenario.Params) (*graph.Graph, error) {
			return gen.BarabasiAlbert(40, 2, p.Seed())
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&scenario.FuncGenerator{
		GenName:   "block",
		GenParams: []scenario.ParamSpec{seed},
		Fn: func(ctx context.Context, p scenario.Params) (*graph.Graph, error) {
			if started != nil {
				started <- struct{}{}
			}
			<-ctx.Done()
			return nil, errs.Ctx(ctx)
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestCancelRunningJobStreamsPartialResults cancels a job whose last
// unit never finishes and checks the terminal state carries the
// engine's trimmed partial results — plus that the streaming view while
// running already exposed the completed prefix.
func TestCancelRunningJobStreamsPartialResults(t *testing.T) {
	started := make(chan struct{}, 1)
	eng := scenario.NewEngine(blockingRegistry(t, started))
	_, c := newTestServer(t, Config{Engine: eng, JobWorkers: 4})
	ctx := context.Background()

	st, err := c.Submit(ctx, []scenario.Scenario{
		{Name: "quick", Generate: scenario.GenerateSpec{Model: "fast"}, Measure: &scenario.MeasureSpec{Degrees: true}, Seeds: []int64{1, 2}},
		{Name: "stuck", Generate: scenario.GenerateSpec{Model: "block"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Poll until both fast units are visible through the streaming
	// prefix view.
	deadline := time.Now().Add(10 * time.Second)
	var running *JobStatus
	for {
		running, err = c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if running.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fast units never completed: %+v", running)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if running.State != StateRunning {
		t.Fatalf("state %s, want running", running.State)
	}
	if len(running.Results) != 2 || len(running.Results[0].Reps) != 2 || len(running.Results[1].Reps) != 0 {
		t.Fatalf("streamed view %+v", running.Results)
	}
	if running.Results[0].Reps[0].Seed != 1 || running.Results[0].Reps[1].Seed != 2 {
		t.Fatalf("streamed reps out of order: %+v", running.Results[0].Reps)
	}

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state %s, want canceled (err %q)", final.State, final.Error)
	}
	if final.Error == "" || !strings.Contains(final.Error, "canceled") {
		t.Fatalf("terminal error %q", final.Error)
	}
	if len(final.Results) != 2 {
		t.Fatalf("partial results %+v", final.Results)
	}
	if !final.Results[0].Partial || len(final.Results[0].Reps) != 2 {
		t.Fatalf("scenario 0 partial view %+v", final.Results[0])
	}
	if !final.Results[1].Partial || len(final.Results[1].Reps) != 0 {
		t.Fatalf("scenario 1 partial view %+v", final.Results[1])
	}
}

// TestCancelQueuedJobAndQueueLimit exercises a server with no
// executors: jobs stay queued, the queue bound maps to 429, and a
// queued job cancels immediately.
func TestCancelQueuedJobAndQueueLimit(t *testing.T) {
	_, c := newTestServer(t, Config{Executors: -1, MaxQueue: 2})
	ctx := context.Background()
	spec := []scenario.Scenario{{Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 50}}}}

	a, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, spec)
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("third submit on a 2-deep queue gave %v, want HTTP 429", err)
	}

	st, err := c.Cancel(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if got, err := c.Job(ctx, a.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("poll after cancel: %+v, %v", got, err)
	}
	// Canceling a terminal job is a no-op.
	if st, err := c.Cancel(ctx, a.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("second cancel: %+v, %v", st, err)
	}
}

// TestSubmitValidation maps malformed and invalid specs to 400s that
// classify as ErrBadParam through the client.
func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Executors: -1})
	ctx := context.Background()
	for _, body := range []string{
		"",
		"{ not json",
		`{"generate": {"model": "nope"}}`,
		`{"generate": {"model": "ba", "params": {"n": 2.5}}}`,
		`{"generate": {"model": "ba", "params": {"nope": 1}}}`,
		`{"generate": {"model": "ba"}, "reps": -1}`,
		`[{"generate": {"model": "ba"}, "route": {"demands": 0}}]`,
	} {
		if _, err := c.SubmitSpec(ctx, []byte(body)); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("spec %q gave %v, want ErrBadParam", body, err)
		}
	}
	if _, err := c.Job(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job gave %v, want HTTP 404", err)
	}
}

// TestRegistryEndpoint checks every component family is listed with
// parameter specs.
func TestRegistryEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Executors: -1})
	info, err := c.Registry(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	find := func(list []ComponentInfo, name string) *ComponentInfo {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
		return nil
	}
	for _, probe := range []struct {
		family string
		list   []ComponentInfo
		name   string
	}{
		{"models", info.Models, "fkp"},
		{"models", info.Models, "waxman"},
		{"metrics", info.Metrics, "expansion"},
		{"attacks", info.Attacks, "degree"},
		{"traffic", info.Traffic, "gravity"},
	} {
		if find(probe.list, probe.name) == nil {
			t.Errorf("registry %s missing %q", probe.family, probe.name)
		}
	}
	wax := find(info.Models, "waxman")
	if wax == nil || len(wax.Params) == 0 {
		t.Fatalf("waxman params missing: %+v", wax)
	}
	hasN := false
	for _, p := range wax.Params {
		if p.Name == "n" {
			hasN = true
		}
	}
	if !hasN {
		t.Fatalf("waxman param specs missing \"n\": %+v", wax.Params)
	}
}

// TestStatuszCountsJobsAndCache runs one job and checks the counters
// move.
func TestStatuszCountsJobsAndCache(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, []scenario.Scenario{
		{Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 60}}, Measure: &scenario.MeasureSpec{Degrees: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	z, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if z.UptimeSeconds < 0 || z.Draining {
		t.Fatalf("statusz %+v", z)
	}
	if z.Jobs.Submitted != 1 || z.Jobs.Done != 1 {
		t.Fatalf("job stats %+v", z.Jobs)
	}
	if z.Cache.Misses == 0 || z.Cache.Budget <= 0 {
		t.Fatalf("cache stats %+v", z.Cache)
	}
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID || list[0].Results != nil {
		t.Fatalf("job list %+v", list)
	}
}

// TestShutdownDrainsQueuedJobs submits work, shuts down, and checks
// everything queued still completed while new submissions are refused.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	s, c := newTestServer(t, Config{Executors: 1})
	ctx := context.Background()
	spec := []scenario.Scenario{{
		Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 60}},
		Measure:  &scenario.MeasureSpec{Degrees: true},
		Reps:     2,
	}}
	ids := make([]string, 3)
	for i := range ids {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, id := range ids {
		st, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s after drain: %s (%s)", id, st.State, st.Error)
		}
	}
	_, err := c.Submit(ctx, spec)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining gave %v, want HTTP 503", err)
	}
	z, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !z.Draining {
		t.Fatal("statusz not draining after Shutdown")
	}
}

// TestShutdownDeadlineCancelsRunningJob forces the drain deadline and
// checks the in-flight job is canceled through its context.
func TestShutdownDeadlineCancelsRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	eng := scenario.NewEngine(blockingRegistry(t, started))
	s, c := newTestServer(t, Config{Engine: eng})
	ctx := context.Background()

	st, err := c.Submit(ctx, []scenario.Scenario{{Generate: scenario.GenerateSpec{Model: "block"}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(dctx); err == nil {
		t.Fatal("Shutdown returned nil despite a blocked job")
	}
	final, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("blocked job after forced shutdown: %s (%s)", final.State, final.Error)
	}
}

// TestJobStatusJSONShape pins the wire field names the CLI and smoke
// script rely on.
func TestJobStatusJSONShape(t *testing.T) {
	data, err := json.Marshal(&JobStatus{ID: "job-1", State: StateQueued})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id"`, `"state"`, `"scenarios"`, `"reps"`, `"completed"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JobStatus JSON missing %s: %s", want, data)
		}
	}
	if strings.Contains(string(data), `"results"`) {
		t.Errorf("empty results not omitted: %s", data)
	}
	if !Terminal(StateDone) || !Terminal(StateFailed) || !Terminal(StateCanceled) ||
		Terminal(StateQueued) || Terminal(StateRunning) {
		t.Fatal("Terminal misclassifies a state")
	}
}
