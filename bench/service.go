package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// serviceCacheBudget is a third of the job mix's working set of
// distinct topologies at fullSizes, so the cache both hits and evicts.
const serviceCacheBudget = 16 << 20

// svcEnv is one in-process toposcenariod: a Server over its own engine
// behind an httptest listener, and the closed-loop clients.
type svcEnv struct {
	srv     *service.Server
	ts      *httptest.Server
	clients []*service.Client
	conns   []*http.Transport
}

func startService() *svcEnv {
	eng := scenario.NewEngine(nil)
	eng.SetCacheBudget(serviceCacheBudget)
	srv := service.New(service.Config{Engine: eng, Executors: serviceExecutors, JobWorkers: 1})
	e := &svcEnv{srv: srv, ts: httptest.NewServer(srv)}
	e.clients, e.conns = newClients(e.ts.URL, nil)
	return e
}

// newClients builds one client per closed loop, each over its own
// connection; count, when set, receives the response bytes read.
func newClients(url string, count *atomic.Int64) ([]*service.Client, []*http.Transport) {
	clients := make([]*service.Client, serviceClients)
	conns := make([]*http.Transport, serviceClients)
	for i := range clients {
		conns[i] = &http.Transport{}
		var rt http.RoundTripper = conns[i]
		if count != nil {
			rt = &countingTransport{base: conns[i], n: count}
		}
		clients[i] = service.NewClient(url, &http.Client{Transport: rt})
		clients[i].PollInterval = pollInterval * time.Millisecond
	}
	return clients, conns
}

func (e *svcEnv) close() {
	e.ts.Close()
	_ = e.srv.Shutdown(context.Background()) // no deadline: a drain always completes
	for _, c := range e.conns {
		c.CloseIdleConnections()
	}
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	spec    int
	ms      float64
	results []*scenario.Result
	err     error
}

// closedLoop runs jobs (indices into docs) on the clients. Each client
// submits its next job only after its previous one reached a terminal
// state, and takes the next job of the sequence, so neither client sits
// idle while the other still has a queue of its own.
func closedLoop(clients []*service.Client, jobs []int, run func(c *service.Client, pos, spec int) jobOutcome) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := int(next.Add(1)) - 1; pos < len(jobs); pos = int(next.Add(1)) - 1 {
				out[pos] = run(c, pos, jobs[pos])
			}
		}()
	}
	wg.Wait()
	return out
}

// runJob submits one spec document and waits for the job with
// Client.Wait, the way a caller of toposcenariod does.
func runJob(ctx context.Context, c *service.Client, doc []byte, spec int) jobOutcome {
	t := time.Now()
	st, err := c.SubmitSpec(ctx, doc)
	if err == nil {
		st, err = c.Wait(ctx, st.ID)
	}
	o := jobOutcome{spec: spec, ms: since(t) * 1e3, err: err}
	if err == nil {
		o.results = st.Results
		if st.State != service.StateDone {
			o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	return o
}

// check digests each outcome against the reference of its spec (set on
// first sight when ref[spec] is empty) and returns the failures.
func check(outs []jobOutcome, ref []string, log io.Writer) int {
	bad := 0
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(log, "service-mixed: spec %d: %v\n", o.spec, o.err)
			bad++
			continue
		}
		d := digestOf(o.results)
		if ref[o.spec] == "" {
			ref[o.spec] = d
		}
		if d != ref[o.spec] {
			fmt.Fprintf(log, "service-mixed: spec %d returned different bytes\n", o.spec)
			bad++
		}
	}
	return bad
}

// specDocs renders each scenario as the spec document a job submits.
func specDocs(specs []scenario.Scenario) ([][]byte, error) {
	docs := make([][]byte, len(specs))
	for i := range specs {
		doc, err := json.Marshal(specs[i])
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	return docs, nil
}

func runService(ctx context.Context, w workload, cfg runConfig) (*report, error) {
	rep := &report{Metrics: metricSet{}}
	m := rep.Metrics
	specs := w.service(cfg.seed, cfg.sizes)
	labels := make([]string, len(specs))
	for i := range specs {
		labels[i] = specs[i].Name
	}
	// Every pass, the set-up's included, submits each distinct spec once
	// in the order of specs.
	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}

	// Set-up: start the server and run one pass.
	var ref []string
	env, setupS, err := setupTimes(func() (*svcEnv, error) {
		docs, err := specDocs(w.service(cfg.seed, cfg.sizes))
		if err != nil {
			return nil, err
		}
		env := startService()
		outs := closedLoop(env.clients, all, func(c *service.Client, _, spec int) jobOutcome {
			return runJob(ctx, c, docs[spec], spec)
		})
		rep.Attempted += len(outs)
		digests := make([]string, len(specs))
		rep.Failed += check(outs, digests, cfg.log)
		if ref == nil {
			ref = digests
		}
		for i, d := range digests {
			if d != "" && d != ref[i] {
				rep.Failed++
			}
		}
		return env, nil
	}, (*svcEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	m["setup_s"] = median(setupS)
	rep.Units = listing(ref, labels)
	rep.Digest = digestOf(rep.Units)
	if cfg.golden != "" {
		rep.Failed += checkGolden(rep.Units, cfg.golden)
	}
	docs, err := specDocs(specs)
	if err != nil {
		return nil, err
	}

	// Measured passes.
	var passS, allocMB, gcCycles, rssMB, allJobMS []float64
	var jobMS [][]float64
	var cache scenario.CacheStats
	before, err := env.clients[0].Statusz(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for p := 0; p < minPasses || since(start) < cfg.seconds; p++ {
		runtime.GC()
		resetPeakRSS()
		r0 := readRuntime()
		t := time.Now()
		outs := closedLoop(env.clients, all, func(c *service.Client, _, spec int) jobOutcome {
			return runJob(ctx, c, docs[spec], spec)
		})
		passS = append(passS, since(t))
		a, g := readRuntime().since(r0)
		allocMB, gcCycles, rssMB = append(allocMB, a), append(gcCycles, g), append(rssMB, peakRSSMB())
		ms := make([]float64, len(outs))
		for i, o := range outs {
			ms[i] = o.ms
		}
		jobMS, allJobMS = append(jobMS, ms), append(allJobMS, ms...)
		rep.Attempted += len(outs)
		rep.Failed += check(outs, ref, cfg.log)
	}
	after, err := env.clients[0].Statusz(ctx)
	if err != nil {
		return nil, err
	}
	addCache(&cache, after.Cache, before.Cache)
	m["units_per_s"] = float64(len(all)) / median(passS)
	m["unit_ms_p50"] = passPercentile(jobMS, 50)
	m["unit_ms_p90"] = passPercentile(jobMS, 90)
	m["peak_rss_mb"] = median(rssMB)
	m["service.job_ms_p99"] = percentile(allJobMS, 99)
	m["runtime.alloc_mb"] = median(allocMB)
	m["runtime.gc_cycles"] = median(gcCycles)
	cacheMetrics(m, cache, len(passS), after.Cache.BytesUsed)

	if cfg.trace {
		tr := traceService(ctx, env, docs, all, ref, rep, m, cfg.log)
		if err := tr.finish(m, cfg, w.name, serviceClients, median(passS)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceService runs one more pass with a span around every
// submit and poll. It polls with Client.Job at the same interval as
// Client.Wait, so it sees the queue-to-running transition.
func traceService(ctx context.Context, env *svcEnv, docs [][]byte, jobs []int, ref []string, rep *report, m metricSet, log io.Writer) *tracedRun {
	tr := newTracer()
	var bytesRead atomic.Int64
	clients, conns := newClients(env.ts.URL, &bytesRead)
	defer func() {
		for _, c := range conns {
			c.CloseIdleConnections()
		}
	}()
	var mu sync.Mutex
	var queueMS []float64
	polls := 0
	pass := tr.begin("bench.pass", -1, -1)
	outs := closedLoop(clients, jobs, func(c *service.Client, pos, spec int) jobOutcome {
		job := tr.begin("service.job", pos, pass)
		defer tr.end(job)
		t := time.Now()
		var st *service.JobStatus
		err := tr.do("service.submit", pos, job, func() (err error) {
			st, err = c.SubmitSpec(ctx, docs[spec])
			return err
		})
		if err != nil {
			return jobOutcome{spec: spec, err: err}
		}
		id, queued, n := st.ID, -1.0, 0
		tick := time.NewTicker(pollInterval * time.Millisecond)
		defer tick.Stop()
		for {
			if err := tr.do("service.poll", pos, job, func() (err error) {
				st, err = c.Job(ctx, id)
				return err
			}); err != nil {
				return jobOutcome{spec: spec, err: err}
			}
			n++
			if queued < 0 && st.State != service.StateQueued {
				queued = since(t) * 1e3
			}
			if service.Terminal(st.State) {
				break
			}
			<-tick.C
		}
		mu.Lock()
		queueMS = append(queueMS, queued)
		polls += n
		mu.Unlock()
		o := jobOutcome{spec: spec, results: st.Results}
		if st.State != service.StateDone {
			o.err = fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		return o
	})
	tr.end(pass)
	rep.Attempted += len(outs)
	rep.Failed += check(outs, ref, log)

	var submitMS, pollMS []float64
	for _, s := range tr.spans {
		switch s.Name {
		case "service.submit":
			submitMS = append(submitMS, s.dur())
		case "service.poll":
			pollMS = append(pollMS, s.dur())
		}
	}
	m["service.submit_ms_p50"] = median(submitMS)
	m["service.poll_ms_p50"] = median(pollMS)
	m["service.queue_ms_p50"] = median(queueMS)
	m["service.polls_per_job"] = float64(polls) / float64(len(jobs))
	m["service.kb_per_job"] = float64(bytesRead.Load()) / 1024 / float64(len(jobs))
	return &tracedRun{spans: tr.spans, setup: -1, pass: pass, counts: metricSet{}}
}

// countingTransport counts the response-body bytes its client reads.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
