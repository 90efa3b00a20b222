package graph

// The PageRank power iteration's parameters: the customary damping (the
// probability of following an edge; 1-damping teleports), an iteration
// bound, and the L1 convergence threshold. The constants are typed so
// that 1-damping rounds exactly as it would at run time.
const (
	damping float64 = 0.85
	maxIter int     = 100
	tol     float64 = 1e-9
)

// PageRank computes the PageRank vector of the graph (dangling nodes
// redistribute uniformly). The result sums to 1 for non-empty graphs.
//
// The PRNet baseline (Ma et al., ICCAD'15) ranks trace-signal candidates by
// PageRank over the signal dependency graph; this is its numeric kernel.
func (g *Directed) PageRank() []float64 {
	n := g.N()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for u := 0; u < n; u++ {
			if len(g.succ[u]) == 0 {
				dangling += rank[u]
			}
			next[u] = 0
		}
		base := (1-damping)*inv + damping*dangling*inv
		for u := 0; u < n; u++ {
			next[u] += base
		}
		for u := 0; u < n; u++ {
			if d := len(g.succ[u]); d > 0 {
				share := damping * rank[u] / float64(d)
				for _, v := range g.succ[u] {
					next[v] += share
				}
			}
		}
		diff := 0.0
		for u := 0; u < n; u++ {
			d := next[u] - rank[u]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}
