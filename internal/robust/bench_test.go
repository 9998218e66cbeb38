package robust

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The sweep benches pit the two evaluation paths against each other on
// the same 10k-node schedule at a 2% fraction grid (the resolution a
// real resilience curve wants): the masked path pays one masked BFS per
// removal fraction, the union-find replay (the path RunSweepContext
// takes for the plain LCC curve) one reverse pass for the whole
// trajectory regardless of grid density.

func benchSweepInputs(b *testing.B) (*graph.Graph, *graph.CSR, []float64) {
	b.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), 10000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	fracs := make([]float64, 50)
	for i := range fracs {
		fracs[i] = float64(i) / 50
	}
	return g, g.Freeze(), fracs
}

func benchSweep(b *testing.B, masked bool) {
	g, c, fracs := benchSweepInputs(b)
	spec := SweepSpec{Attack: "degree", Fracs: fracs, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(context.Background(), g, c, spec, 1, masked); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepMasked10k(b *testing.B)      { benchSweep(b, true) }
func BenchmarkSweepIncremental10k(b *testing.B) { benchSweep(b, false) }

// BenchmarkSweepRandomFailure10k measures the default path under the
// trial-averaged random-failure sweep the experiments run hottest.
func BenchmarkSweepRandomFailure10k(b *testing.B) {
	g, c, fracs := benchSweepInputs(b)
	spec := SweepSpec{Attack: "random-failure", Fracs: fracs, Trials: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSweepContext(context.Background(), g, c, spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepAdaptiveDegree10k measures the adaptive-degree sweep,
// whose cost is the attack's schedule: the union-find replay after it
// is one near-linear pass.
func BenchmarkSweepAdaptiveDegree10k(b *testing.B) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 10000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := g.Freeze()
	spec := SweepSpec{Attack: "adaptive-degree", Fracs: []float64{0.005, 0.01, 0.02}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSweepContext(context.Background(), g, c, spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The timeline benches pit the epoch-based engine against per-event
// from-scratch recompute on a 50-event outage-and-recovery schedule:
// five cycles of eight fails and two repairs (10 monotone epochs). The
// recompute path pays one full masked traversal per event. The epoch
// engine builds one base forest over the items no event touches and
// then, per epoch, rolls back to it and re-adds the few dozen touched
// items; the epoch leg reports that exact work as dsu-ops/op, the
// node activations plus union calls of one run
// (TestTimelineForestOps pins the count).

func benchTimelineInputs(tb testing.TB) (*graph.CSR, []TimelineEvent) {
	tb.Helper()
	g, err := gen.BarabasiAlbertContext(context.Background(), 10000, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	n := g.NumNodes()
	events := make([]TimelineEvent, 0, 50)
	next := 1
	for cycle := 0; cycle < 5; cycle++ {
		start := next
		for i := 0; i < 8; i++ {
			events = append(events, TimelineEvent{Op: OpFailNode, ID: (next * 2654435761) % n})
			next++
		}
		for i := 0; i < 2; i++ {
			events = append(events, TimelineEvent{Op: OpRepairNode, ID: ((start + i) * 2654435761) % n})
		}
	}
	return g.Freeze(), events
}

func benchTimeline(b *testing.B, mode TimelineMode) {
	c, events := benchTimelineInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTimelineContext(context.Background(), c, events, nil, mode, 1); err != nil {
			b.Fatal(err)
		}
	}
	if mode == TimelineEpoch {
		_, ops, err := epochLCCTrajectory(context.Background(), c, events)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ops), "dsu-ops/op")
	}
}

func BenchmarkTimelineEpochVsRecompute(b *testing.B) {
	b.Run("epoch", func(b *testing.B) { benchTimeline(b, TimelineEpoch) })
	b.Run("recompute", func(b *testing.B) { benchTimeline(b, TimelineMasked) })
}
