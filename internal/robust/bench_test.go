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
	g, err := gen.BarabasiAlbert(10000, 2, 1)
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

// The timeline benches pit the epoch-based engine against per-event
// from-scratch recompute on a 50-event outage-and-recovery schedule:
// five cycles of eight fails and two repairs (~10 monotone epochs). The
// epoch engine pays one near-linear rebuild per epoch; the recompute
// path one full masked traversal per event. The acceptance bar for the
// epoch engine is >= 3x on this workload.

func benchTimelineInputs(b *testing.B) (*graph.CSR, []TimelineEvent) {
	b.Helper()
	g, err := gen.BarabasiAlbert(10000, 2, 1)
	if err != nil {
		b.Fatal(err)
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
}

func BenchmarkTimelineEpochVsRecompute(b *testing.B) {
	b.Run("epoch", func(b *testing.B) { benchTimeline(b, TimelineEpoch) })
	b.Run("recompute", func(b *testing.B) { benchTimeline(b, TimelineMasked) })
}
