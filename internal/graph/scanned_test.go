package graph_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestDijkstraScanned pins the Workspace.DijkstraScanned work count on
// a 10k-node BA, ER and HOT graph. A full heap run scans each reachable
// row exactly once, and the bucketed full run at least once. Over 50
// seeded (source, target) pairs, single-target DijkstraTo reports the
// same count when repeated and scans at most a tenth of the rows the
// unidirectional bounded kernel scans for the same pairs. The totals
// are pinned exactly: BA and ER, whose edges join random node pairs,
// keep the undirected bidirectional search, and HOT, whose edges are
// local, runs the goal-directed one.
func TestDijkstraScanned(t *testing.T) {
	graphs := []struct {
		name  string
		build func() (*graph.Graph, error)
		rows  int // single-target rows over the 50 pairs
	}{
		{"ba", func() (*graph.Graph, error) { return gen.BarabasiAlbertContext(context.Background(), 10000, 2, 1) }, 5314},
		{"er", func() (*graph.Graph, error) { return gen.ErdosRenyiGNMContext(context.Background(), 10000, 20000, 1) }, 8645},
		{"hot", func() (*graph.Graph, error) {
			g, _, err := core.GrowHOTContext(context.Background(), core.HOTConfig{
				N: 10000, Seed: 1, LinksPerArrival: 2,
				Terms: []core.ObjectiveTerm{core.DistanceTerm{Weight: 8}, core.CentralityTerm{Weight: 1}},
			})
			return g, err
		}, 15303},
	}
	for _, gr := range graphs {
		g, err := gr.build()
		if err != nil {
			t.Fatal(err)
		}
		c := g.Freeze()
		n := c.NumNodes()
		ws := graph.NewWorkspace(n)

		c.DijkstraHeap(ws, 0)
		reached := 0
		for _, d := range ws.Dist[:n] {
			if !math.IsInf(d, 1) {
				reached++
			}
		}
		if ws.DijkstraScanned != reached {
			t.Fatalf("%s: heap run scanned %d rows, want the %d reachable", gr.name, ws.DijkstraScanned, reached)
		}
		c.Dijkstra(ws, 0)
		if ws.DijkstraScanned < reached {
			t.Fatalf("%s: bucketed run scanned %d rows, fewer than the %d reachable", gr.name, ws.DijkstraScanned, reached)
		}

		r := rand.New(rand.NewSource(1))
		bidir, uni := 0, 0
		for i := 0; i < 50; i++ {
			src, tgt := r.Intn(n), r.Intn(n)
			for tgt == src {
				tgt = r.Intn(n)
			}
			targets := []int{tgt}
			c.DijkstraTo(ws, src, targets)
			got := ws.DijkstraScanned
			c.DijkstraTo(ws, src, targets)
			if ws.DijkstraScanned != got {
				t.Fatalf("%s pair %d->%d: scanned %d then %d rows", gr.name, src, tgt, got, ws.DijkstraScanned)
			}
			bidir += got
			c.DijkstraBucketTo(ws, src, targets)
			uni += ws.DijkstraScanned
		}
		t.Logf("%s: single-target DijkstraTo scanned %d rows over 50 pairs, the unidirectional kernel %d (%.1fx)",
			gr.name, bidir, uni, float64(uni)/float64(bidir))
		if 10*bidir > uni {
			t.Fatalf("%s: single-target DijkstraTo scanned %d rows, more than a tenth of the unidirectional %d", gr.name, bidir, uni)
		}
		if bidir != gr.rows {
			t.Fatalf("%s: single-target DijkstraTo scanned %d rows over 50 pairs, pinned at %d", gr.name, bidir, gr.rows)
		}
	}
}
