package experiments

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/rng"
	"repro/internal/robust"
)

// E10Level2Rings regenerates the §2.4 question — "how important the
// careful incorporation of Level-2 technologies and economics is" — by
// solving the same access instances under point-to-point cables (MMP
// tree) and under a SONET-style ring technology, and quantifying what
// the Level-2 constraint does to cost, topology shape, and
// survivability. IP-level measurements see only the ring's cycle edges;
// the tree the pure cost optimization would have built never exists.
func E10Level2Rings(opts Options) (*Table, error) {
	n := opts.scale(800)
	reps := opts.reps(5)
	ringSize := 8
	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("Level-2 technology ablation: tree vs SONET rings (size %d), %d customers, %d seeds", ringSize, n, reps),
		Claim: "Level-2 technologies (Sonet, ATM, WDM) \"may seriously constrain the interconnectivity of ISP topologies\" (§2.1), and their careful incorporation matters (§2.4)",
		Header: []string{
			"design", "tree", "2edge-conn", "cost(avg)", "premium%",
			"maxDeg(avg)", "LCC@10%fail",
		},
	}
	// One unit per replication; reduced in rep order below.
	type repStat struct {
		treeCost, ringCost float64
		treeDeg, ringDeg   float64
		treeLCC, ringLCC   float64
		treeIsTree         bool
		ring2EC            bool
	}
	repStats, err := mapUnits(opts, reps, func(rep int) (repStat, error) {
		in, err := access.RandomInstance(access.InstanceConfig{
			N: n, Seed: rng.Derive(opts.Seed, rep),
			DemandMin: 1, DemandMax: 8, RootAtCenter: true,
		})
		if err != nil {
			return repStat{}, err
		}
		rep2, err := access.CompareRingVsTree(in, rng.Derive(opts.Seed, 100+rep), ringSize)
		if err != nil {
			return repStat{}, err
		}
		rs := repStat{
			treeCost:   rep2.TreeCost,
			ringCost:   rep2.RingCost,
			treeDeg:    float64(rep2.TreeMaxDegree),
			ringDeg:    float64(rep2.RingMaxDegree),
			treeIsTree: rep2.TreeIsTree,
			ring2EC:    rep2.Ring2EdgeConn,
		}
		// Survivability under 10% random failure.
		tree, err := access.MMPIncremental(in, rng.Derive(opts.Seed, 100+rep))
		if err != nil {
			return repStat{}, err
		}
		ring, err := access.RingMetro(in, ringSize)
		if err != nil {
			return repStat{}, err
		}
		spec := robust.SweepSpec{Attack: "random-failure", Fracs: []float64{0.1}, Trials: 3, Workers: opts.Workers}
		tc, err := robust.RunSweepContext(opts.ctx(), tree.Graph, nil, spec, opts.Seed)
		if err != nil {
			return repStat{}, err
		}
		rc, err := robust.RunSweepContext(opts.ctx(), ring.Graph, nil, spec, opts.Seed)
		if err != nil {
			return repStat{}, err
		}
		rs.treeLCC = tc[0].Values[0]
		rs.ringLCC = rc[0].Values[0]
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	var treeCost, ringCost, treeDeg, ringDeg, treeLCC, ringLCC float64
	treeIsTree, ring2EC := 0, 0
	for _, rs := range repStats {
		treeCost += rs.treeCost
		ringCost += rs.ringCost
		treeDeg += rs.treeDeg
		ringDeg += rs.ringDeg
		treeLCC += rs.treeLCC
		ringLCC += rs.ringLCC
		if rs.treeIsTree {
			treeIsTree++
		}
		if rs.ring2EC {
			ring2EC++
		}
	}
	rf := float64(reps)
	t.AddRow("p2p cables (mmp tree)",
		fmt.Sprintf("%d/%d", treeIsTree, reps), "0/"+d(reps),
		f2(treeCost/rf), "-", f2(treeDeg/rf), f3(treeLCC/rf))
	t.AddRow(fmt.Sprintf("sonet rings (<=%d)", ringSize),
		"0/"+d(reps), fmt.Sprintf("%d/%d", ring2EC, reps),
		f2(ringCost/rf), f2(100*(ringCost-treeCost)/treeCost),
		f2(ringDeg/rf), f3(ringLCC/rf))
	t.Notes = append(t.Notes,
		"the ring technology forbids the cost-optimal tree: protection capacity raises cost, but the surviving-component curve under failures improves",
		"router-level (IP) measurements of the ring network would never reveal the tree the unconstrained optimization wanted — the §2.4 caveat")
	return t, nil
}
