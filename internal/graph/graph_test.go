package graph

import (
	"math"
	"math/rand"
	"testing"
)

func diamond() *Directed {
	// 0 -> 1 -> 3, 0 -> 2 -> 3
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g
}

func TestNewAndDegrees(t *testing.T) {
	g := diamond()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("node 0 degrees = out %d in %d, want 2, 0", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 2 {
		t.Errorf("node 3 degrees = out %d in %d, want 0, 2", g.OutDegree(3), g.InDegree(3))
	}
}

func TestAddNode(t *testing.T) {
	g := New(0)
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 {
		t.Fatalf("AddNode ids = %d, %d; want 0, 1", a, b)
	}
	g.AddEdge(a, b)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestNegativeNodeCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestReachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	r := g.Reachable([]int{0})
	want := []bool{true, true, true, false, false}
	for i, w := range want {
		if r[i] != w {
			t.Errorf("Reachable[%d] = %v, want %v", i, r[i], w)
		}
	}
	cr := g.CoReachable([]int{2})
	wantCo := []bool{true, true, true, false, false}
	for i, w := range wantCo {
		if cr[i] != w {
			t.Errorf("CoReachable[%d] = %v, want %v", i, cr[i], w)
		}
	}
}

func TestReachableMultipleSources(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	r := g.Reachable([]int{0, 2})
	for i := 0; i < 4; i++ {
		if !r[i] {
			t.Errorf("node %d not reached", i)
		}
	}
}

func TestTopoSortDAG(t *testing.T) {
	g := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[v] {
				t.Errorf("edge %d->%d violates topo order", u, v)
			}
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if g.IsDAG() {
		t.Error("IsDAG = true for cyclic graph")
	}
}

func TestIsDAGEmpty(t *testing.T) {
	if !New(0).IsDAG() {
		t.Error("empty graph should be a DAG")
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	r := g.PageRank(PageRankOptions{})
	for i, v := range r {
		if math.Abs(v-0.25) > 1e-6 {
			t.Errorf("rank[%d] = %g, want 0.25", i, v)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(50)
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(50), rng.Intn(50))
	}
	r := g.PageRank(PageRankOptions{})
	sum := 0.0
	for _, v := range r {
		if v < 0 {
			t.Fatalf("negative rank %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("sum = %g, want 1", sum)
	}
}

func TestPageRankHub(t *testing.T) {
	// Everyone points at node 0; node 0 should outrank the rest.
	g := New(6)
	for i := 1; i < 6; i++ {
		g.AddEdge(i, 0)
	}
	r := g.PageRank(PageRankOptions{})
	for i := 1; i < 6; i++ {
		if r[0] <= r[i] {
			t.Errorf("hub rank %g not above leaf rank %g", r[0], r[i])
		}
	}
}

func TestPageRankEmpty(t *testing.T) {
	if r := New(0).PageRank(PageRankOptions{}); r != nil {
		t.Errorf("rank of empty graph = %v, want nil", r)
	}
}
