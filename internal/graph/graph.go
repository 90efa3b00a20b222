// Package graph provides small, dependency-free directed-graph utilities
// used across tracescale: topological sorting and cycle detection for flow
// DAG validation and netlist levelization, and PageRank for the PRNet
// baseline signal selector. Interleaved-flow executions are counted by
// interleave.Counter, not here.
package graph

import "fmt"

// Directed is a directed graph over nodes 0..N-1 stored as adjacency lists.
// The zero value is an empty graph; use New and AddEdge to build one.
type Directed struct {
	succ [][]int
	pred [][]int
}

// New returns a directed graph with n nodes and no edges.
func New(n int) *Directed {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Directed{
		succ: make([][]int, n),
		pred: make([][]int, n),
	}
}

// N returns the number of nodes.
func (g *Directed) N() int { return len(g.succ) }

// AddEdge inserts the edge u -> v. Parallel edges are allowed; callers that
// need simple graphs must deduplicate themselves.
func (g *Directed) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
}

func (g *Directed) check(u int) {
	if u < 0 || u >= len(g.succ) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.succ)))
	}
}

// Succ returns the successor list of u. The returned slice must not be
// modified.
func (g *Directed) Succ(u int) []int {
	g.check(u)
	return g.succ[u]
}

// Pred returns the predecessor list of u. The returned slice must not be
// modified.
func (g *Directed) Pred(u int) []int {
	g.check(u)
	return g.pred[u]
}

// Reachable returns the set of nodes reachable from any node in from,
// including the from nodes themselves, as a boolean mask.
func (g *Directed) Reachable(from []int) []bool {
	seen := make([]bool, g.N())
	stack := make([]int, 0, len(from))
	for _, s := range from {
		g.check(s)
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// CoReachable returns the set of nodes from which some node in to is
// reachable (including the to nodes), as a boolean mask.
func (g *Directed) CoReachable(to []int) []bool {
	seen := make([]bool, g.N())
	stack := make([]int, 0, len(to))
	for _, s := range to {
		g.check(s)
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.pred[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}
