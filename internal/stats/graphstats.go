package stats

import "repro/internal/graph"

// GraphDegreeStats bundles the degree-tail characterization of a graph.
type GraphDegreeStats struct {
	Degrees        []int
	MaxDegree      int
	MeanDegree     float64
	Classification TailClassification
	TopDegreeFrac  float64 // max degree / (n-1): 1.0 means a perfect star hub
}

// AnalyzeDegrees computes the degree-tail statistics of g.
func AnalyzeDegrees(g *graph.Graph) GraphDegreeStats {
	deg := g.Degrees()
	out := GraphDegreeStats{Degrees: deg}
	if len(deg) == 0 {
		return out
	}
	sum := 0
	for _, d := range deg {
		sum += d
		if d > out.MaxDegree {
			out.MaxDegree = d
		}
	}
	out.MeanDegree = float64(sum) / float64(len(deg))
	if len(deg) > 1 {
		out.TopDegreeFrac = float64(out.MaxDegree) / float64(len(deg)-1)
	}
	out.Classification = ClassifyTail(deg)
	return out
}
