package graph

// DijkstraBucketTo exposes the unidirectional bounded kernel to the
// external tests, which compare its work with single-target DijkstraTo.
func (c *CSR) DijkstraBucketTo(ws *Workspace, src int, targets []int) {
	c.dijkstraBucket(ws, src, targets)
}
