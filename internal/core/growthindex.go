package core

// gridMinNodes is the size from which the growth loops engage the
// attachment index (geom.Index): below it the exhaustive scan wins on
// constant factors.
const gridMinNodes = 1024

// The index stat slots the growth loops fill. Each stat is either
// immutable once a node arrives (its tree hop count, its distance to the
// root) or monotone non-decreasing over the run (degree, pairwise hop
// sum), as geom.Index requires.
const (
	statHops     = iota // tree hop distance to root (immutable)
	statRootDist        // Euclidean distance to root (immutable)
	statDeg             // degree at insertion (monotone under growth)
	statSumHops         // sum of hop distances to all nodes (monotone)
)
