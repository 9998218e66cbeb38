package peering

import "repro/internal/errs"

// Valley-free routing (Gao–Rexford): a BGP path may climb
// customer→provider edges, cross at most one peer–peer edge, and then
// descend provider→customer edges — never a "valley" (down then up) and
// never two lateral peer hops. The paper's abstract names "the dynamics
// of routing protocols" as a target application of realistic topologies;
// this is the policy model that makes AS-level reachability different
// from plain graph connectivity.

// vfPhase is the walk state in the valley-free automaton.
type vfPhase uint8

const (
	vfUp   vfPhase = iota // still climbing customer→provider edges
	vfPeer                // crossed the single allowed peer edge
	vfDown                // descending provider→customer edges
)

// ValleyFreeResult reports policy-constrained reachability over an AS
// relationship graph.
type ValleyFreeResult struct {
	// Reachable[i][j] reports whether i can reach j by a valley-free
	// path (true on the diagonal).
	Reachable [][]bool
	// Hops[i][j] is the minimum valley-free AS path length (-1 when
	// unreachable).
	Hops [][]int
	// ReachableFrac is the fraction of ordered pairs (i != j) that are
	// reachable.
	ReachableFrac float64
	// AvgHops is the mean path length over reachable ordered pairs.
	AvgHops float64
}

// ValleyFree computes policy reachability for a transit result: edges
// with Cable == 1 in ASAll are customer-provider (transit) links (the
// customer is the lower-tier endpoint recorded in Links), edges with
// Cable == 0 are settlement-free peering.
func ValleyFree(tr *TransitResult) (*ValleyFreeResult, error) {
	if tr == nil || tr.ASAll == nil {
		return nil, errs.BadParamf("peering: nil transit result")
	}
	n := tr.ASAll.NumNodes()
	// Relationship lookup: provider[c][p] = true when p is c's provider.
	isProvider := make([]map[int]bool, n)
	for i := range isProvider {
		isProvider[i] = map[int]bool{}
	}
	for _, l := range tr.Links {
		isProvider[l.Customer][l.Provider] = true
	}

	res := &ValleyFreeResult{
		Reachable: make([][]bool, n),
		Hops:      make([][]int, n),
	}
	reachPairs, hopTotal := 0, 0
	for s := 0; s < n; s++ {
		res.Reachable[s] = make([]bool, n)
		res.Hops[s] = make([]int, n)
		for j := range res.Hops[s] {
			res.Hops[s][j] = -1
		}
		res.Reachable[s][s] = true
		res.Hops[s][s] = 0

		// BFS over (node, phase) states.
		type state struct {
			node  int
			phase vfPhase
		}
		seen := map[state]bool{{s, vfUp}: true}
		frontier := []state{{s, vfUp}}
		dist := 0
		for len(frontier) > 0 {
			dist++
			var next []state
			for _, st := range frontier {
				tr.ASAll.Neighbors(st.node, func(v, eid int) {
					e := tr.ASAll.Edge(eid)
					var nextPhases []vfPhase
					if e.Cable == 1 {
						// Transit edge: direction matters.
						if isProvider[st.node][v] {
							// climbing to a provider: only while in Up.
							if st.phase == vfUp {
								nextPhases = append(nextPhases, vfUp)
							}
						} else {
							// descending to a customer: always allowed,
							// locks the walk into Down.
							nextPhases = append(nextPhases, vfDown)
						}
					} else {
						// Peer edge: once, only before descending.
						if st.phase == vfUp {
							nextPhases = append(nextPhases, vfPeer)
						}
					}
					for _, ph := range nextPhases {
						ns := state{v, ph}
						if !seen[ns] {
							seen[ns] = true
							next = append(next, ns)
							if !res.Reachable[s][v] {
								res.Reachable[s][v] = true
								res.Hops[s][v] = dist
							}
						}
					}
				})
			}
			frontier = next
		}
		for j := 0; j < n; j++ {
			if j != s && res.Reachable[s][j] {
				reachPairs++
				hopTotal += res.Hops[s][j]
			}
		}
	}
	if n > 1 {
		res.ReachableFrac = float64(reachPairs) / float64(n*(n-1))
	}
	if reachPairs > 0 {
		res.AvgHops = float64(hopTotal) / float64(reachPairs)
	}
	return res, nil
}
