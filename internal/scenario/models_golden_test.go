package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// goldenModels lists the parameter sets testdata/models.golden pins for
// each registered model. fkp and hot grow 300, 900 and 1,500 nodes and
// rgg 2,000 nodes at radius 0.05, so the digests cover attachment and
// radius queries on grids of several sizes.
var goldenModels = map[string][]Params{
	"fkp": {
		{"n": 300}, {"n": 900}, {"n": 1500},
		{"n": 300, "alpha": 0.5}, {"n": 900, "ports": 4},
	},
	"hot": {
		{"n": 300}, {"n": 900}, {"n": 1500, "links": 2},
		{"n": 300, "links": 2, "ports": 6}, {"n": 900, "links": 3, "alpha": 2},
	},
	"mmp":         {{"n": 300}},
	"ring":        {{"n": 200}},
	"ba":          {{"n": 300}},
	"glp":         {{"n": 300}},
	"er-gnp":      {{"n": 300, "p": 0.02}},
	"er-gnm":      {{"n": 300, "m": 600}},
	"waxman":      {{"n": 300}},
	"transitstub": {{"domains": 2, "transitsize": 3, "stubs": 2, "stubsize": 4}},
	"rgg": {
		{"n": 2000, "radius": 0.05}, {"n": 300, "radius": 0.1},
		{"n": 300, "radius": 0}, {"n": 0},
	},
	"configmodel": {{"n": 200}},
	"inet":        {{"n": 300}},
	"isp": {
		{"cities": 10, "pops": 4, "customers": 300},
		{"cities": 10, "pops": 4, "customers": 300, "ports": 6, "price": 0.05},
	},
	"internet": {{"cities": 10, "pops": 3, "customers": 60, "isps": 3}},
}

// graphDigest is the SHA-256 of g's bits: every node's coordinates, kind
// and capacity, then every edge's ends, weight, capacity and cable, in
// storage order.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.NumNodes()))
	for i := 0; i < g.NumNodes(); i++ {
		nd := g.Node(i)
		put(math.Float64bits(nd.X))
		put(math.Float64bits(nd.Y))
		put(uint64(nd.Kind))
		put(math.Float64bits(nd.Capacity))
	}
	put(uint64(g.NumEdges()))
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.Weight))
		put(math.Float64bits(e.Capacity))
		put(uint64(int64(e.Cable)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// formatParams renders p as sorted name=value pairs.
func formatParams(p Params) string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%v", k, p[k])
	}
	return strings.Join(parts, ",")
}

// TestModelsGolden pins every registered model's graph, bit for bit, at
// seeds 1 and 2 to testdata/models.golden. An intended output change is
// recorded by copying the new listing over the golden.
func TestModelsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range Default().Names() {
		sets, ok := goldenModels[name]
		if !ok {
			t.Errorf("model %q has no golden parameter set", name)
			continue
		}
		for _, p := range sets {
			for _, seed := range []float64{1, 2} {
				q := Params{"seed": seed}
				for k, v := range p {
					q[k] = v
				}
				g, err := Default().GenerateByName(context.Background(), name, q)
				if err != nil {
					t.Fatalf("%s %v: %v", name, q, err)
				}
				fmt.Fprintf(&b, "%s %s %s\n", name, formatParams(q), graphDigest(g))
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "models.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("model digests differ from testdata/models.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
