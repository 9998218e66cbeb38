package trafficreg

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/traffic"
)

func testGeo(t *testing.T, n int, seed int64) *traffic.Geography {
	t.Helper()
	g, err := traffic.GenerateGeography(traffic.GeographyConfig{
		NumCities: n, Seed: seed, ZipfExponent: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNamesSortedAndComplete(t *testing.T) {
	want := []string{"bimodal", "gravity", "single-epicenter", "uniform", "zipf-hotspot"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestGravityMatchesHardcodedDefaults pins the compatibility contract:
// a zero Selection generates exactly the matrix the pre-registry call
// sites hardcoded as GravityConfig{Scale: 1, Exponent: 1}.
func TestGravityMatchesHardcodedDefaults(t *testing.T) {
	geo := testGeo(t, 20, 7)
	got, err := GenerateDemand(context.Background(), geo, Selection{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := traffic.GravityDemand(geo, traffic.GravityConfig{Scale: 1, Exponent: 1})
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("demand[%d][%d] = %v, want hardcoded-gravity %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestModelsWellFormed checks every built-in over one geography:
// symmetric, zero diagonal, finite, non-negative.
func TestModelsWellFormed(t *testing.T) {
	geo := testGeo(t, 15, 3)
	for _, name := range Names() {
		m, err := GenerateDemand(context.Background(), geo, Selection{Name: name}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m) != 15 {
			t.Fatalf("%s: matrix size %d", name, len(m))
		}
		for i := range m {
			if m[i][i] != 0 {
				t.Fatalf("%s: nonzero self-demand at %d", name, i)
			}
			for j := range m[i] {
				v := m[i][j]
				if v != m[j][i] {
					t.Fatalf("%s: asymmetric at (%d,%d)", name, i, j)
				}
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: bad entry %v at (%d,%d)", name, v, i, j)
				}
			}
		}
		if m.Total() <= 0 {
			t.Fatalf("%s: no demand at all", name)
		}
	}
}

func TestUniformIsFlat(t *testing.T) {
	geo := testGeo(t, 8, 2)
	m, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "uniform", Params: Params{"volume": 2.5},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if i != j && m[i][j] != 2.5 {
				t.Fatalf("uniform demand[%d][%d] = %v, want 2.5", i, j, m[i][j])
			}
		}
	}
}

func TestZipfHotspotConcentrates(t *testing.T) {
	geo := testGeo(t, 12, 4)
	m, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "zipf-hotspot", Params: Params{"exponent": 1.5},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] <= m[10][11] {
		t.Fatalf("top pair %v not above tail pair %v", m[0][1], m[10][11])
	}
}

func TestBimodalTiers(t *testing.T) {
	// Equal populations isolate the peak/off-peak rates.
	geo := &traffic.Geography{}
	for i := 0; i < 10; i++ {
		geo.Cities = append(geo.Cities, traffic.City{Population: 1})
	}
	m, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "bimodal", Params: Params{"peak": 4, "offpeak": 1, "topfrac": 0.2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 4*m[0][5] {
		t.Fatalf("peak pair %v, off-peak pair %v, want 4x ratio", m[0][1], m[0][5])
	}
	if m[5][6] != m[0][5] {
		t.Fatalf("two off-peak pairs differ: %v vs %v", m[5][6], m[0][5])
	}
}

func TestSingleEpicenterShape(t *testing.T) {
	geo := testGeo(t, 9, 5)
	m, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "single-epicenter", Params: Params{"city": 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if i == j {
				continue
			}
			touches := i == 2 || j == 2
			if touches && m[i][j] <= 0 {
				t.Fatalf("epicenter pair (%d,%d) has no demand", i, j)
			}
			if !touches && m[i][j] != 0 {
				t.Fatalf("non-epicenter pair (%d,%d) has demand %v", i, j, m[i][j])
			}
		}
	}
	if _, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "single-epicenter", Params: Params{"city": 99},
	}, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("out-of-range epicenter gave %v, want ErrBadParam", err)
	}
}

// TestGravityBoundaryParams pins the validated-parameter contract at
// the boundaries GravityDemand would silently coerce: scale=0 really
// means no traffic, and epsilon=0 (which would be coerced to 0.01) is
// rejected instead of ignored.
func TestGravityBoundaryParams(t *testing.T) {
	geo := testGeo(t, 8, 13)
	m, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "gravity", Params: Params{"scale": 0},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total() != 0 {
		t.Fatalf("gravity scale=0 generated total demand %v, want 0", m.Total())
	}
	m2, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "gravity", Params: Params{"scale": 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := GenerateDemand(context.Background(), geo, Selection{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.Total()-2*base.Total()) > 1e-12*base.Total() {
		t.Fatalf("gravity scale=2 total %v, want 2x default %v", m2.Total(), base.Total())
	}
	if _, err := GenerateDemand(context.Background(), geo, Selection{
		Name: "gravity", Params: Params{"epsilon": 0},
	}, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("gravity epsilon=0 gave %v, want ErrBadParam (would be silently coerced)", err)
	}
}

func TestResolveRejectsBadParams(t *testing.T) {
	cases := []Selection{
		{Name: "nope"},
		{Name: "gravity", Params: Params{"bogus": 1}},
		{Name: "gravity", Params: Params{"scale": -1}},
		{Name: "bimodal", Params: Params{"topfrac": 1.5}},
		{Name: "single-epicenter", Params: Params{"city": 0.5}},
	}
	geo := testGeo(t, 5, 1)
	for i, sel := range cases {
		if _, err := GenerateDemand(context.Background(), geo, sel, 1); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("case %d gave %v, want ErrBadParam", i, err)
		}
	}
	if _, err := GenerateDemand(context.Background(), nil, Selection{}, 1); !errors.Is(err, errs.ErrBadParam) {
		t.Error("nil geography accepted")
	}
}

func TestSelectionJSONRoundTrip(t *testing.T) {
	sel := Selection{Name: "gravity", Params: Params{"scale": 2, "exponent": 0.5}}
	data, err := json.Marshal(sel)
	if err != nil {
		t.Fatal(err)
	}
	var back Selection
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	geo := testGeo(t, 10, 9)
	a, err := GenerateDemand(context.Background(), geo, sel, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDemand(context.Background(), geo, back, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("round-tripped selection generated a different matrix")
	}
}

func TestParseSelections(t *testing.T) {
	set, err := Default().ParseSelections("gravity,uniform", []string{"gravity.scale=2", "uniform.volume=3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Params["scale"] != 2 || set[1].Params["volume"] != 3 {
		t.Fatalf("parsed %+v", set)
	}
	for _, bad := range [][2]any{
		{"gravity,,uniform", []string(nil)},
		{"gravity,gravity", []string(nil)},
		{"gravity", []string{"uniform.volume=3"}},
		{"gravity", []string{"notakv"}},
		{"gravity", []string{"scale=2"}},
	} {
		if _, err := Default().ParseSelections(bad[0].(string), bad[1].([]string)); !errors.Is(err, errs.ErrBadParam) {
			t.Errorf("ParseSelections(%q, %v) gave %v, want ErrBadParam", bad[0], bad[1], err)
		}
	}
}

func TestGraphDemandsDeterministicAndRoutable(t *testing.T) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 60, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GraphDemands(context.Background(), g, Selection{}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GraphDemands(context.Background(), g, Selection{}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GraphDemands not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no demands over a connected topology")
	}
	n := g.NumNodes()
	seen := map[[2]int]bool{}
	for _, d := range a {
		if d.Src < 0 || d.Src >= n || d.Dst < 0 || d.Dst >= n || d.Src == d.Dst {
			t.Fatalf("bad endpoints %+v", d)
		}
		if d.Volume <= 0 {
			t.Fatalf("non-positive volume %+v", d)
		}
		key := [2]int{d.Src, d.Dst}
		if seen[key] {
			t.Fatalf("duplicate pair %+v", d)
		}
		seen[key] = true
	}
	// Sites bound honored: 10 sites means at most C(10,2) pairs.
	if len(a) > 45 {
		t.Fatalf("%d demands from 10 sites, want <= 45", len(a))
	}
	// Tiny graphs yield no demands rather than errors.
	g1, err := gen.BarabasiAlbertContext(context.Background(), 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GraphDemands(context.Background(), g1, Selection{}, 0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSiteGeographyRanksByDegree(t *testing.T) {
	g, err := gen.BarabasiAlbertContext(context.Background(), 80, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	geo, ids := SiteGeography(g, 12)
	if len(geo.Cities) != 12 || len(ids) != 12 {
		t.Fatalf("got %d cities, %d ids", len(geo.Cities), len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if g.Degree(ids[i]) > g.Degree(ids[i-1]) {
			t.Fatal("sites not ordered by descending degree")
		}
	}
	for i, id := range ids {
		if geo.Cities[i].Population != float64(g.Degree(id)+1) {
			t.Fatalf("site %d population %v, want degree+1 = %d", i, geo.Cities[i].Population, g.Degree(id)+1)
		}
	}
}

// TestTopDegreeMatchesSort pins the bounded site selection to a stable
// sort of every node id by (degree descending, id ascending), the way
// sites were picked before, on graphs full of degree ties (a path, a
// star with equal leaves, BA, an edgeless graph) for every k from 1 to
// n.
func TestTopDegreeMatchesSort(t *testing.T) {
	ba, err := gen.BarabasiAlbertContext(context.Background(), 60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path, star, empty := graph.New(9), graph.New(9), graph.New(5)
	for i := 0; i < 9; i++ {
		path.AddNode(graph.Node{})
		star.AddNode(graph.Node{})
	}
	for i := 0; i < 5; i++ {
		empty.AddNode(graph.Node{})
	}
	for i := 1; i < 9; i++ {
		path.AddEdge(graph.Edge{U: i - 1, V: i})
		star.AddEdge(graph.Edge{U: 4, V: i - 1 + i/5})
	}
	for _, g := range []*graph.Graph{ba, path, star, empty} {
		n := g.NumNodes()
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			da, db := g.Degree(want[a]), g.Degree(want[b])
			if da != db {
				return da > db
			}
			return want[a] < want[b]
		})
		for k := 1; k <= n; k++ {
			if got := topDegree(g, k); !slices.Equal(got, want[:k]) {
				t.Fatalf("n=%d k=%d: topDegree %v, sorted %v", n, k, got, want[:k])
			}
		}
	}
}

func TestRegisterCustomModel(t *testing.T) {
	reg := NewRegistry()
	m := &FuncModel{
		ModelName: "flat2",
		Fn: func(ctx context.Context, geo *traffic.Geography, _ Params, _ int64) (traffic.DemandMatrix, error) {
			n := len(geo.Cities)
			out := newMatrix(n)
			_ = fillSymmetric(ctx, n, out, func(int, int) float64 { return 2 })
			return out, nil
		},
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); !errors.Is(err, errs.ErrBadParam) {
		t.Fatalf("duplicate registration gave %v", err)
	}
	got, err := reg.GenerateDemand(context.Background(), testGeo(t, 4, 1), Selection{Name: "flat2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][1] != 2 {
		t.Fatalf("custom model demand = %v", got[0][1])
	}
}
