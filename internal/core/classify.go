package core

import (
	"repro/internal/graph"
	"repro/internal/stats"
)

// TopologyClass is the coarse structural classification the FKP theory
// predicts as alpha sweeps (§3.1 of the paper).
type TopologyClass int

// The classes the E1 experiment distinguishes.
const (
	ClassOther TopologyClass = iota
	ClassStar                // one hub adjacent to (almost) every node
	ClassPowerLawTree
	ClassExponentialTree
)

// String names the class.
func (c TopologyClass) String() string {
	switch c {
	case ClassStar:
		return "star"
	case ClassPowerLawTree:
		return "power-law tree"
	case ClassExponentialTree:
		return "exponential tree"
	default:
		return "other"
	}
}

// StarThreshold is the fraction of all possible spokes the top hub must
// own for the topology to be called a star.
const StarThreshold = 0.5

// Classify assigns a TopologyClass to g from ds, its degree statistics
// (stats.AnalyzeDegrees(g)), so a caller that already holds them does
// not fit the degree tail again. A graph whose top hub touches >=
// StarThreshold of the other nodes is a star; otherwise trees are split
// by their degree-tail kind. Non-trees are classified by tail only
// (reported as Other when undetermined).
func Classify(g *graph.Graph, ds stats.GraphDegreeStats) TopologyClass {
	if ds.TopDegreeFrac >= StarThreshold {
		return ClassStar
	}
	switch ds.Classification.Kind {
	case stats.TailPowerLaw:
		if g.IsTree() {
			return ClassPowerLawTree
		}
	case stats.TailExponential:
		if g.IsTree() {
			return ClassExponentialTree
		}
	}
	return ClassOther
}
