package geom

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// The search before the band trim and the cached threshold, kept as the
// oracle: every non-empty cell of an admitted block is tested on its own
// bound, every bound re-reads the list's k-th best, and every floor walks
// all the slots.

func (ix *Index) oracleSearch(p Point, distW float64, statW *[IndexStats]float64, maxLen float64, best *CandList, eval func(id int32)) {
	g := ix.grid
	pcx, pcy := g.CellAt(p)
	b := ix.blk
	pbx, pby := pcx/b, pcy/b
	maxRing := max(pbx, ix.bnx-1-pbx, pby, ix.bny-1-pby)
	statFloor := 0.0
	for s := range IndexStats {
		if statW[s] != 0 && ix.cellMin[s] != nil && !math.IsInf(ix.globalMin[s], 1) {
			statFloor += statW[s] * ix.globalMin[s]
		}
	}
	q := oracleQuery{ix: ix, p: p, distW: distW, statW: statW, maxLen: maxLen, best: best, eval: eval}
	for k := 0; k <= maxRing; k++ {
		if k > 0 {
			band := k - 1
			ringD := g.ComplementDistLB(p,
				(pbx-band)*b, (pby-band)*b, (pbx+band)*b+b-1, (pby+band)*b+b-1)
			if ringD > maxLen || !best.admits(distW*ringD+statFloor) {
				return
			}
		}
		forRing(pbx, pby, k, ix.bnx, ix.bny, q.block)
	}
}

type oracleQuery struct {
	ix     *Index
	p      Point
	distW  float64
	statW  *[IndexStats]float64
	maxLen float64
	best   *CandList
	eval   func(id int32)
}

func (q *oracleQuery) block(bx, by int) {
	ix, g := q.ix, q.ix.grid
	nx, ny := g.Dims()
	cx0, cy0 := bx*ix.blk, by*ix.blk
	cx1, cy1 := min(cx0+ix.blk-1, nx-1), min(cy0+ix.blk-1, ny-1)
	d := g.RangeDistLB(q.p, cx0, cy0, cx1, cy1)
	if d > q.maxLen || !q.best.admits(q.distW*d+ix.statFloorAt(q.statW, &ix.blockMin, by*ix.bnx+bx)) {
		return
	}
	var gx2, gy2 [maxBlock]float64 // squared column and row gaps
	for cx := cx0; cx <= cx1; cx++ {
		dx := edgeGap(g.xs[cx], g.xs[cx+1], q.p.X)
		gx2[cx-cx0] = dx * dx
	}
	for cy := cy0; cy <= cy1; cy++ {
		dy := edgeGap(g.ys[cy], g.ys[cy+1], q.p.Y)
		gy2[cy-cy0] = dy * dy
	}
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			ci := cy*nx + cx
			ids := g.cells[ci]
			if len(ids) == 0 {
				continue
			}
			cd := math.Sqrt(gx2[cx-cx0] + gy2[cy-cy0])
			if cd > q.maxLen || !q.best.admits(q.distW*cd+ix.statFloorAt(q.statW, &ix.cellMin, ci)) {
				continue
			}
			ix.evals += len(ids)
			for _, id := range ids {
				q.eval(id)
			}
		}
	}
}

func (ix *Index) statFloorAt(statW *[IndexStats]float64, mins *[IndexStats][]float64, i int) float64 {
	f := 0.0
	for s := range IndexStats {
		if statW[s] != 0 && mins[s] != nil {
			f += statW[s] * mins[s][i]
		}
	}
	return f
}

func (b *CandList) admits(lb float64) bool {
	if len(b.c) < b.k {
		return true
	}
	w := b.c[len(b.c)-1].Cost
	return !(lb > w+math.Abs(w)*pruneSlack)
}

// indexRun is one growth run that Search and the oracle both serve. Its
// arrivals attach as the designers' do: each query's k best gain a link
// (slot 2 grows, as degree does), and the arrival is added with its own
// stat values.
type indexRun struct {
	name     string
	rect     Rect
	expected int     // the grid is sized for this many points
	pts      []Point // pts[0] is the root, stored before the first query
	track    [IndexStats]bool
	maxLen   float64 // a capped search that finds nothing is rerun uncapped
	// weights returns one query's distance and stat weights.
	weights func(r *rand.Rand) (float64, [IndexStats]float64)
	// stat returns an arrival's value in slot s.
	stat func(r *rand.Rand, s int) float64
}

// checkIndexRun grows two identical indexes over run's arrivals, keeping
// the k best per query, and fails unless Search hands eval the oracle's
// id sequence and ends with its candidate list and eval count.
func checkIndexRun(t *testing.T, run indexRun, k int) {
	t.Helper()
	r := rand.New(rand.NewPCG(uint64(len(run.pts)), uint64(k)))
	ix := NewIndex(run.rect, run.expected, run.track)
	ox := NewIndex(run.rect, run.expected, run.track)
	vals := make([][IndexStats]float64, 0, len(run.pts))
	add := func(id int, v [IndexStats]float64) {
		vals = append(vals, v)
		ix.Add(int32(id), run.pts[id], &v)
		ox.Add(int32(id), run.pts[id], &v)
	}
	add(0, [IndexStats]float64{})
	var p Point
	var distW, maxLen float64
	var statW [IndexStats]float64
	// The cost sums its terms in another order than a floor does, as
	// HOT's does, so bounds and costs can differ in the last ulp.
	evalInto := func(best *CandList, seq *[]int32) func(int32) {
		return func(id int32) {
			*seq = append(*seq, id)
			d := p.Dist(run.pts[id])
			if d > maxLen {
				return
			}
			v := &vals[id]
			best.Consider(int(id), float64(distW*d)+float64(statW[0]*v[0])+float64(statW[2]*v[2])+float64(statW[1]*v[1]))
		}
	}
	best, oBest := NewCandList(k), NewCandList(k)
	var seq, oSeq []int32
	eval, oEval := evalInto(best, &seq), evalInto(oBest, &oSeq)
	for i := 1; i < len(run.pts); i++ {
		p = run.pts[i]
		distW, statW = run.weights(r)
		best.Reset()
		oBest.Reset()
		seq, oSeq = seq[:0], oSeq[:0]
		for _, maxLen = range [2]float64{run.maxLen, math.Inf(1)} {
			ix.Search(p, distW, &statW, maxLen, false, best, eval)
			ox.oracleSearch(p, distW, &statW, maxLen, oBest, oEval)
			if !best.Empty() || !oBest.Empty() {
				break
			}
		}
		if !slices.Equal(seq, oSeq) {
			t.Fatalf("%s k=%d arrival %d: eval order\n got %v\nwant %v", run.name, k, i, seq, oSeq)
		}
		if !slices.Equal(best.Best(), oBest.Best()) {
			t.Fatalf("%s k=%d arrival %d: best %v, want %v", run.name, k, i, best.Best(), oBest.Best())
		}
		if ix.Evals() != ox.Evals() {
			t.Fatalf("%s k=%d arrival %d: %d evals, want %d", run.name, k, i, ix.Evals(), ox.Evals())
		}
		for _, c := range best.Best() {
			vals[c.ID][2]++
		}
		var v [IndexStats]float64
		for s := range IndexStats {
			v[s] = run.stat(r, s)
		}
		v[2] = float64(len(best.Best()))
		add(i, v)
	}
}

func uniformPoints(r *rand.Rand, rect Rect, n int) []Point {
	pts := make([]Point, n)
	pts[0] = rect.Center()
	for i := 1; i < n; i++ {
		pts[i] = Point{rect.MinX + r.Float64()*rect.Width(), rect.MinY + r.Float64()*rect.Height()}
	}
	return pts
}

// TestIndexSearchMatchesOracle holds Search to the untrimmed search on
// random point sets with HOT's fixed stat weights, the per-query demand
// weights ISP metros and MMP use, a length cap, a zero distance weight, a
// single-cell grid, and a lattice whose points sit on cell edges, where
// bounds tie costs to the last ulp; each for k of 1, 2 and 5.
func TestIndexSearchMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	hot := func(distW float64) func(*rand.Rand) (float64, [IndexStats]float64) {
		return func(*rand.Rand) (float64, [IndexStats]float64) {
			return distW, [IndexStats]float64{1, 0.3, 0.1}
		}
	}
	hotStat := func(r *rand.Rand, s int) float64 { return float64(r.IntN(12)) + r.Float64()*float64(s) }
	all := [IndexStats]bool{true, true, true}
	metro := Rect{MinX: -3, MinY: 2, MaxX: 7, MaxY: 4.5}
	// 48 points size the grid at 4 x 4 cells with edges at multiples of
	// 1/4, the lattice's own spacing.
	lattice := make([]Point, 600)
	for i := range lattice {
		lattice[i] = Point{float64(r.IntN(5)) / 4, float64(r.IntN(5)) / 4}
	}
	small := []float64{0.1, 0.2, 0.3, 0.7}
	runs := []indexRun{
		{name: "hot", rect: UnitSquare, expected: 1500, pts: uniformPoints(r, UnitSquare, 1500),
			track: all, maxLen: math.Inf(1), weights: hot(8), stat: hotStat},
		{name: "hot-maxlen", rect: UnitSquare, expected: 1500, pts: uniformPoints(r, UnitSquare, 1500),
			track: all, maxLen: 0.04, weights: hot(8), stat: hotStat},
		{name: "metro", rect: metro, expected: 1200, pts: uniformPoints(r, metro, 1200),
			track: [IndexStats]bool{true}, maxLen: math.Inf(1),
			weights: func(r *rand.Rand) (float64, [IndexStats]float64) {
				dem := 1 + 15*r.Float64()
				return 2 + 0.05*dem, [IndexStats]float64{dem}
			},
			stat: func(r *rand.Rand, s int) float64 { return 3 * r.Float64() }},
		{name: "zero-distW", rect: UnitSquare, expected: 800, pts: uniformPoints(r, UnitSquare, 800),
			track: all, maxLen: math.Inf(1), weights: hot(0), stat: hotStat},
		{name: "single-cell", rect: UnitSquare, expected: 3, pts: uniformPoints(r, UnitSquare, 200),
			track: all, maxLen: math.Inf(1), weights: hot(8), stat: hotStat},
		{name: "lattice", rect: UnitSquare, expected: 48, pts: lattice,
			track: all, maxLen: math.Inf(1),
			weights: func(r *rand.Rand) (float64, [IndexStats]float64) {
				return float64(1 + r.IntN(3)), [IndexStats]float64{small[r.IntN(4)], small[r.IntN(4)], small[r.IntN(4)]}
			},
			stat: func(r *rand.Rand, s int) float64 { return small[r.IntN(4)] }},
	}
	for _, run := range runs {
		for _, k := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/k%d", run.name, k), func(t *testing.T) { checkIndexRun(t, run, k) })
		}
	}
}

// TestIndexRetireMatchesBruteForce interleaves Add, Retire, stat growth
// and searches at random. Every live search must return the canonical
// k best over the ids not retired, computed by brute force, and hand
// eval no retired id; every all-ids search must return the k best over
// every id, retired ones included. Stat values only grow, as the
// IndexStats contract allows, and Retire is asked for them when it
// re-takes a floor. The runs cover HOT's fixed weights, a stat-dominated
// mix, a length cap, a single-cell grid and a lattice whose points sit
// on cell edges, and each ends by retiring every id.
func TestIndexRetireMatchesBruteForce(t *testing.T) {
	all := [IndexStats]bool{true, true, true}
	lattice := func(r *rand.Rand) Point { return Point{float64(r.IntN(5)) / 4, float64(r.IntN(5)) / 4} }
	uniform := func(r *rand.Rand) Point { return Point{r.Float64(), r.Float64()} }
	runs := []struct {
		name     string
		expected int
		point    func(*rand.Rand) Point
		track    [IndexStats]bool
		distW    float64
		statW    [IndexStats]float64
		maxLen   float64
	}{
		{"hot", 1200, uniform, all, 8, [IndexStats]float64{1, 0.3, 0.1}, math.Inf(1)},
		{"stat-heavy", 1200, uniform, all, 0.5, [IndexStats]float64{2, 1, 0.7}, math.Inf(1)},
		{"one-slot", 1200, uniform, [IndexStats]bool{true}, 1, [IndexStats]float64{3}, math.Inf(1)},
		{"maxlen", 1200, uniform, all, 8, [IndexStats]float64{1, 0.3, 0.1}, 0.08},
		{"single-cell", 3, uniform, all, 8, [IndexStats]float64{1, 0.3, 0.1}, math.Inf(1)},
		{"lattice", 48, lattice, all, 1, [IndexStats]float64{0.2, 0.3, 0.7}, math.Inf(1)},
	}
	for ri, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(ri), 29))
			ix := NewIndex(UnitSquare, run.expected, run.track)
			var pts []Point
			var vals [][IndexStats]float64
			var retired []bool
			statsOf := func(id int32, v *[IndexStats]float64) { *v = vals[id] }
			add := func() {
				p := run.point(r)
				v := [IndexStats]float64{float64(r.IntN(8)), r.Float64() * 4, float64(r.IntN(3))}
				ix.Add(int32(len(pts)), p, &v)
				pts, vals, retired = append(pts, p), append(vals, v), append(retired, false)
			}
			cost := func(p Point, id int) float64 {
				v := &vals[id]
				return float64(run.distW*p.Dist(pts[id])) + float64(run.statW[0]*v[0]) + float64(run.statW[2]*v[2]) + float64(run.statW[1]*v[1])
			}
			retiredBest := 0
			search := func(step int) {
				p := run.point(r)
				k := []int{1, 2, 5}[r.IntN(3)]
				for _, live := range []bool{true, false} {
					best, want := NewCandList(k), NewCandList(k)
					ix.Search(p, run.distW, &run.statW, run.maxLen, live, best, func(id int32) {
						if live && retired[id] {
							t.Fatalf("step %d: live search evaluated retired id %d", step, id)
						}
						if p.Dist(pts[id]) <= run.maxLen {
							best.Consider(int(id), cost(p, int(id)))
						}
					})
					for id := range pts {
						if !(live && retired[id]) && p.Dist(pts[id]) <= run.maxLen {
							want.Consider(id, cost(p, id))
						}
					}
					if !slices.Equal(best.Best(), want.Best()) {
						t.Fatalf("step %d live=%v k=%d: best %v, brute force %v", step, live, k, best.Best(), want.Best())
					}
					for _, c := range best.Best() {
						if !live && retired[c.ID] {
							retiredBest++
						}
					}
				}
			}
			add()
			for step := 0; step < 2500; step++ {
				switch x := r.IntN(20); {
				case x < 6:
					add()
				case x < 11:
					// Retire a random id, live or not: retiring an id
					// that is not live must change nothing.
					id := r.IntN(len(pts))
					ix.Retire(int32(id), pts[id], statsOf)
					retired[id] = true
				case x < 13:
					vals[r.IntN(len(pts))][2]++ // a degree grows
				default:
					search(step)
				}
			}
			for id := range pts {
				ix.Retire(int32(id), pts[id], statsOf)
				retired[id] = true
			}
			evals := ix.Evals()
			ix.Search(run.point(r), run.distW, &run.statW, run.maxLen, true, NewCandList(3), func(id int32) {
				t.Fatalf("live search with every id retired evaluated %d", id)
			})
			if ix.Evals() != evals {
				t.Fatalf("live search with every id retired counted %d evals", ix.Evals()-evals)
			}
			search(-1)
			if retiredBest == 0 {
				t.Fatal("no all-ids search returned a retired id")
			}
		})
	}
}
