package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testEntry builds a completed entry around a freshly generated BA
// graph; every call with the same n yields the same byte footprint.
func testEntry(t *testing.T, key string, n int) (*topoEntry, int64) {
	t.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), n, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Freeze()
	return &topoEntry{key: key, ready: make(chan struct{}), g: g, c: c},
		g.MemBytes() + c.MemBytes()
}

// TestSnapCacheEvictionOrderIsLRU pins the eviction order the old
// map-iteration cache could not guarantee: with A, B, C resident and A
// recently touched, inserting D evicts exactly B (the least recently
// used), then a further insert evicts C — never A or the newcomers.
func TestSnapCacheEvictionOrderIsLRU(t *testing.T) {
	_, entryBytes := testEntry(t, "probe", 40)
	sc := newSnapCache(3 * entryBytes)
	insert := func(key string) {
		ent, leader := sc.lookup(key)
		if !leader {
			t.Fatalf("insert %q: expected leadership, got a cached entry", key)
		}
		full, _ := testEntry(t, key, 40)
		ent.g, ent.c = full.g, full.c
		sc.finish(ent)
	}
	resident := func(key string) bool {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		_, ok := sc.resident[key]
		return ok
	}
	insert("A")
	insert("B")
	insert("C")
	if _, leader := sc.lookup("A"); leader {
		t.Fatal("A not resident after insert")
	}
	// LRU order is now A, C, B (most to least recent).
	insert("D")
	if resident("B") {
		t.Fatal("eviction skipped B, the least recently used entry")
	}
	for _, want := range []string{"A", "C", "D"} {
		if !resident(want) {
			t.Fatalf("%s evicted out of LRU order", want)
		}
	}
	insert("E")
	if resident("C") {
		t.Fatal("second eviction skipped C")
	}
	for _, want := range []string{"A", "D", "E"} {
		if !resident(want) {
			t.Fatalf("%s evicted out of LRU order on second eviction", want)
		}
	}
	st := sc.stats()
	if st.Evictions != 2 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 2 evictions and 3 entries", st)
	}
	if st.BytesUsed != 3*entryBytes {
		t.Fatalf("BytesUsed = %d, want %d", st.BytesUsed, 3*entryBytes)
	}
}

// TestSnapCacheNeverRetainsFailedOrInFlight: an in-flight entry is
// invisible to eviction and never resident, and an errored/canceled
// generation is dropped so the next lookup retries.
func TestSnapCacheNeverRetainsFailedOrInFlight(t *testing.T) {
	sc := newSnapCache(1 << 30)
	ent, leader := sc.lookup("x")
	if !leader {
		t.Fatal("first lookup must lead")
	}
	st := sc.stats()
	if st.InFlight != 1 || st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("in-flight stats = %+v", st)
	}
	// A concurrent caller coalesces onto the same entry.
	ent2, leader2 := sc.lookup("x")
	if leader2 || ent2 != ent {
		t.Fatal("second lookup did not coalesce onto the in-flight entry")
	}
	if st := sc.stats(); st.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", st.Coalesced)
	}
	// Tightening the budget to zero while the generation is in flight
	// must not touch it.
	sc.setBudget(0)
	sc.setBudget(1 << 30)
	// The generation fails: the entry is never retained.
	ent.err = errors.New("boom")
	sc.finish(ent)
	select {
	case <-ent.ready:
	default:
		t.Fatal("finish did not wake waiters")
	}
	st = sc.stats()
	if st.Failures != 1 || st.Entries != 0 || st.InFlight != 0 || st.BytesUsed != 0 {
		t.Fatalf("post-failure stats = %+v", st)
	}
	// The next lookup leads again (the failure was not cached)...
	ent3, leader3 := sc.lookup("x")
	if !leader3 {
		t.Fatal("failed entry was retained")
	}
	// ...and a successful retry is retained normally.
	full, _ := testEntry(t, "x", 30)
	ent3.g, ent3.c = full.g, full.c
	sc.finish(ent3)
	if st := sc.stats(); st.Entries != 1 || st.BytesUsed <= 0 {
		t.Fatalf("post-retry stats = %+v", st)
	}
	if _, leader := sc.lookup("x"); leader {
		t.Fatal("successful retry not resident")
	}
	if st := sc.stats(); st.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", st.Hits)
	}
}

// TestSnapCacheOversizeNeverRetained: a snapshot bigger than the whole
// budget is served but not cached (budget 0 disables retention).
func TestSnapCacheOversizeNeverRetained(t *testing.T) {
	sc := newSnapCache(0)
	ent, leader := sc.lookup("big")
	if !leader {
		t.Fatal("first lookup must lead")
	}
	full, _ := testEntry(t, "big", 30)
	ent.g, ent.c = full.g, full.c
	sc.finish(ent)
	st := sc.stats()
	if st.Entries != 0 || st.BytesUsed != 0 || st.Evictions != 1 {
		t.Fatalf("oversize stats = %+v", st)
	}
	if _, leader := sc.lookup("big"); !leader {
		t.Fatal("oversize entry was retained despite a zero budget")
	}
}

// TestEngineCacheBudgetEviction drives eviction through the Engine
// surface: a budget sized for one snapshot forces regeneration when
// identities alternate, and a raised budget restores hit behavior.
func TestEngineCacheBudgetEviction(t *testing.T) {
	var calls atomic.Int64
	reg := NewRegistry()
	if err := reg.Register(&FuncGenerator{
		GenName:   "counted",
		GenParams: []ParamSpec{{Name: "n", Kind: Int, Default: 50}, seedSpec},
		Fn: func(ctx context.Context, p Params) (*graph.Graph, error) {
			calls.Add(1)
			return gen.BarabasiAlbertContext(context.Background(), p.Int("n"), 2, p.Seed())
		},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := gen.BarabasiAlbertContext(context.Background(), 50, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneEntry := g.MemBytes() + g.Freeze().MemBytes()

	e := NewEngine(reg)
	e.SetCacheBudget(oneEntry + oneEntry/2) // holds exactly one snapshot
	runSeed := func(seed int64) {
		t.Helper()
		sc := Scenario{
			Generate: GenerateSpec{Model: "counted"},
			Measure:  &MeasureSpec{Degrees: true},
			Seeds:    []int64{seed},
		}
		if _, err := e.Run(context.Background(), sc, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runSeed(1) // miss
	runSeed(2) // miss, evicts seed 1
	runSeed(1) // regenerated: a third call
	if got := calls.Load(); got != 3 {
		t.Fatalf("generator ran %d times under a one-entry budget, want 3", got)
	}
	st := e.CacheStats()
	if st.Evictions < 2 || st.Hits != 0 {
		t.Fatalf("stats after thrashing = %+v", st)
	}
	e.SetCacheBudget(DefaultCacheBudget)
	runSeed(1) // last insert of the thrash: still resident, a hit
	if got := calls.Load(); got != 3 {
		t.Fatalf("generator ran %d times, want 3 (seed 1 was resident)", got)
	}
	runSeed(2) // evicted during the thrash: regenerated
	if got := calls.Load(); got != 4 {
		t.Fatalf("generator ran %d times, want 4 (seed 2 was evicted)", got)
	}
	runSeed(1)
	if got := calls.Load(); got != 4 {
		t.Fatalf("generator reran a resident identity (%d calls)", got)
	}
	if st := e.CacheStats(); st.Hits != 2 {
		t.Fatalf("Hits = %d, want 2", st.Hits)
	}
}

// TestConcurrentSharedEngineSingleGeneration is the -race satellite:
// many goroutines hammer one shared Engine with overlapping topology
// identities via both Run and RunBatch; each identity generates exactly
// once and every concurrent result is byte-identical to the serial
// reference.
func TestConcurrentSharedEngineSingleGeneration(t *testing.T) {
	var calls atomic.Int64
	reg := NewRegistry()
	if err := reg.Register(&FuncGenerator{
		GenName:   "counted",
		GenParams: []ParamSpec{{Name: "n", Kind: Int, Default: 60}, seedSpec},
		Fn: func(ctx context.Context, p Params) (*graph.Graph, error) {
			calls.Add(1)
			return gen.BarabasiAlbertContext(context.Background(), p.Int("n"), 2, p.Seed())
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Three batch variants over two topology sizes and three seeds:
	// 2 x 3 = 6 distinct identities, heavily overlapping across
	// variants.
	variants := [][]Scenario{
		{
			{Generate: GenerateSpec{Model: "counted", Params: Params{"n": 60}},
				Measure: &MeasureSpec{Degrees: true}, Seeds: []int64{1, 2, 3}},
			{Generate: GenerateSpec{Model: "counted", Params: Params{"n": 80}},
				Measure: &MeasureSpec{Degrees: true}, Seeds: []int64{1, 2}},
		},
		{
			{Generate: GenerateSpec{Model: "counted", Params: Params{"n": 60}},
				Route: &RouteSpec{Demands: 10}, Seeds: []int64{2, 3}},
		},
		{
			{Generate: GenerateSpec{Model: "counted", Params: Params{"n": 80}},
				Attack: &AttackSpec{Strategy: "degree", Fracs: []float64{0.1}}, Seeds: []int64{1, 2, 3}},
		},
	}
	const distinctIdentities = 6 // n in {60, 80} x seeds {1, 2, 3}

	// Serial references on fresh engines.
	refs := make([]string, len(variants))
	for i, scs := range variants {
		res, err := NewEngine(reg).RunBatch(context.Background(), scs, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = formatAll(res)
	}
	runRes, err := NewEngine(reg).Run(context.Background(), variants[0][0], Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runRef := runRes.Format()
	calls.Store(0)

	shared := NewEngine(reg)
	const goroutines = 18
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		v := i % len(variants)
		useRun := v == 0 && i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			if useRun {
				// Exercise the single-scenario Run path too.
				res, err := shared.Run(context.Background(), variants[0][0], Options{Workers: 2})
				if err != nil {
					errCh <- err
					return
				}
				if got := res.Format(); got != runRef {
					errCh <- fmt.Errorf("Run output diverged from serial reference:\n--- got ---\n%s\n--- want ---\n%s", got, runRef)
				}
				return
			}
			res, err := shared.RunBatch(context.Background(), variants[v], Options{Workers: 4})
			if err != nil {
				errCh <- err
				return
			}
			if got := formatAll(res); got != refs[v] {
				errCh <- fmt.Errorf("variant %d output diverged from serial reference:\n--- got ---\n%s\n--- want ---\n%s", v, got, refs[v])
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := calls.Load(); got != distinctIdentities {
		t.Fatalf("generator ran %d times across %d concurrent batches, want %d (one per identity)",
			got, goroutines, distinctIdentities)
	}
	st := shared.CacheStats()
	if st.Misses != distinctIdentities {
		t.Fatalf("Misses = %d, want %d", st.Misses, distinctIdentities)
	}
	if st.Hits+st.Coalesced == 0 {
		t.Fatal("no hits or coalesced lookups across overlapping concurrent batches")
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after all batches returned", st.InFlight)
	}
}

// TestRunBatchPartialResultsOnCancel pins the partial-results contract:
// a canceled batch returns the contiguous completed prefix per scenario
// with Partial set, alongside the ErrCanceled-wrapping error.
func TestRunBatchPartialResultsOnCancel(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(&FuncGenerator{
		GenName:   "fast",
		GenParams: []ParamSpec{seedSpec},
		Fn: func(ctx context.Context, p Params) (*graph.Graph, error) {
			g, err := gen.BarabasiAlbertContext(context.Background(), 40, 2, p.Seed())
			return g, err
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&FuncGenerator{
		GenName:   "block",
		GenParams: []ParamSpec{seedSpec},
		Fn: func(ctx context.Context, p Params) (*graph.Graph, error) {
			<-ctx.Done()
			return nil, errs.Ctx(ctx)
		},
	}); err != nil {
		t.Fatal(err)
	}
	scs := []Scenario{
		{Generate: GenerateSpec{Model: "fast"}, Measure: &MeasureSpec{Degrees: true}, Seeds: []int64{1, 2}},
		{Generate: GenerateSpec{Model: "block"}, Measure: &MeasureSpec{Degrees: true}, Seeds: []int64{9}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progress atomic.Int64
	fastDone := make(chan struct{})
	// Cancel only once both fast units completed, so the partial prefix
	// below is deterministic; the blocking generator holds the batch
	// open until then.
	go func() {
		<-fastDone
		cancel()
	}()
	res, err := NewEngine(reg).RunBatch(ctx, scs, Options{
		Workers: 4,
		Progress: func(si, rep int, rr RepResult) {
			if rr.Nodes != 40 {
				t.Errorf("progress unit (%d, %d) carries %d nodes, want 40", si, rep, rr.Nodes)
			}
			if progress.Add(1) == 2 {
				close(fastDone)
			}
		},
	})
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("canceled batch gave %v, want ErrCanceled", err)
	}
	if len(res) != 2 {
		t.Fatalf("partial results length = %d, want 2", len(res))
	}
	if !res[0].Partial || !res[1].Partial {
		t.Fatalf("partial results not marked: %v %v", res[0].Partial, res[1].Partial)
	}
	if len(res[0].Reps) != 2 {
		t.Fatalf("fast scenario kept %d reps, want the 2 completed ones", len(res[0].Reps))
	}
	if len(res[1].Reps) != 0 {
		t.Fatalf("blocked scenario kept %d reps, want 0", len(res[1].Reps))
	}
	if got := res[0].Format(); !strings.Contains(got, "PARTIAL") {
		t.Fatalf("formatted partial table missing the PARTIAL marker:\n%s", got)
	}
}

// TestGeneratorPanicFailsCoalescedWaiter: a generator that panics while
// a second batch of the same identity waits on it fails both batches
// with the generation error. The leader finishes the entry on the panic
// path too, so the waiter wakes instead of blocking on it forever (its
// context deadline turns a wedged entry into a test failure, not a
// hang) and nothing stays in flight.
func TestGeneratorPanicFailsCoalescedWaiter(t *testing.T) {
	reg := NewRegistry()
	var e *Engine
	if err := reg.Register(&FuncGenerator{
		GenName:   "panicky",
		GenParams: []ParamSpec{seedSpec},
		Fn: func(ctx context.Context, p Params) (*graph.Graph, error) {
			for deadline := time.Now().Add(10 * time.Second); e.CacheStats().Coalesced < 1 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			panic("generator exploded")
		},
	}); err != nil {
		t.Fatal(err)
	}
	e = NewEngine(reg)
	sc := []Scenario{{Generate: GenerateSpec{Model: "panicky"}, Measure: &MeasureSpec{Degrees: true}}}
	run := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_, err := e.RunBatch(ctx, sc, Options{Workers: 1})
		return err
	}
	leader := make(chan error, 1)
	go func() { leader <- run() }()
	for deadline := time.Now().Add(10 * time.Second); e.CacheStats().InFlight < 1; {
		if time.Now().After(deadline) {
			t.Fatal("first batch never started generating")
		}
		time.Sleep(time.Millisecond)
	}
	waiter := run()
	for name, err := range map[string]error{"waiter": waiter, "leader": <-leader} {
		if err == nil || errors.Is(err, errs.ErrCanceled) || !strings.Contains(err.Error(), `model "panicky" panicked: generator exploded`) {
			t.Errorf("%s got %v, want the generation error", name, err)
		}
	}
	if st := e.CacheStats(); st.Coalesced != 1 || st.InFlight != 0 || st.Failures != 1 || st.Entries != 0 {
		t.Fatalf("cache after a panicking generation = %+v", st)
	}
}
