package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    Vertex
		w       float64
		wantErr error
	}{
		{"self loop", 1, 1, 1, ErrSelfLoop},
		{"u out of range", -1, 0, 1, ErrVertexRange},
		{"v out of range", 0, 3, 1, ErrVertexRange},
		{"zero weight", 0, 1, 0, ErrBadWeight},
		{"negative weight", 0, 1, -2, ErrBadWeight},
		{"nan weight", 0, 1, math.NaN(), ErrBadWeight},
		{"inf weight", 0, 1, math.Inf(1), ErrBadWeight},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddEdge(tt.u, tt.v, tt.w); !errors.Is(err, tt.wantErr) {
				t.Fatalf("AddEdge(%d,%d,%v) err = %v, want %v", tt.u, tt.v, tt.w, err, tt.wantErr)
			}
		})
	}
	if g.M() != 0 {
		t.Fatalf("rejected edges must not be inserted, m=%d", g.M())
	}
	id, err := g.AddEdge(0, 2, 1.5)
	if err != nil || id != 0 {
		t.Fatalf("valid AddEdge = (%d, %v)", id, err)
	}
}

func TestGraphBasics(t *testing.T) {
	g := New(4)
	e01 := g.MustAddEdge(0, 1, 1)
	e12 := g.MustAddEdge(1, 2, 2)
	e23 := g.MustAddEdge(2, 3, 3)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if got := g.TotalWeight(); got != 6 {
		t.Fatalf("TotalWeight = %v", got)
	}
	if got := g.WeightOf([]EdgeID{e01, e23}); got != 4 {
		t.Fatalf("WeightOf = %v", got)
	}
	if g.Edge(e12).Other(1) != 2 || g.Edge(e12).Other(2) != 1 {
		t.Fatal("Other endpoints wrong")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Fatal("degrees wrong")
	}
	minW, maxW := g.MinMaxWeight()
	if minW != 1 || maxW != 3 {
		t.Fatalf("MinMaxWeight = %v,%v", minW, maxW)
	}
	if ar := g.AspectRatio(); ar != 3 {
		t.Fatalf("AspectRatio = %v", ar)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCloneAndSubgraphIndependence(t *testing.T) {
	g := Path(5, 2)
	c := g.Clone()
	c.MustAddEdge(0, 4, 9)
	if g.M() == c.M() {
		t.Fatal("clone mutation leaked into original")
	}
	sub := g.Subgraph([]EdgeID{0, 2})
	if sub.M() != 2 || sub.N() != 5 {
		t.Fatalf("subgraph n=%d m=%d", sub.N(), sub.M())
	}
	if sub.Connected() {
		t.Fatal("subgraph of path edges 0,2 must be disconnected")
	}
}

func TestReweighted(t *testing.T) {
	g := Path(4, 3)
	r, err := g.Reweighted(func(id EdgeID, e Edge) float64 { return e.W * 2 })
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalWeight() != 2*g.TotalWeight() {
		t.Fatalf("reweight: %v vs %v", r.TotalWeight(), g.TotalWeight())
	}
	if _, err := g.Reweighted(func(EdgeID, Edge) float64 { return -1 }); err == nil {
		t.Fatal("negative reweight must error")
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(4, 5, 1)
	if g.Connected() {
		t.Fatal("3-component graph reported connected")
	}
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("components = %d", k)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("component labels wrong: %v", comp)
	}
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

func TestBFSAndHopDiameter(t *testing.T) {
	g := Path(7, 5) // weights ignored by BFS
	hops := g.BFSHops(0)
	for i, h := range hops {
		if int(h) != i {
			t.Fatalf("hops[%d]=%d", i, h)
		}
	}
	if d := g.HopDiameter(); d != 6 {
		t.Fatalf("HopDiameter = %d", d)
	}
	if a := g.HopDiameterApprox(); a != 6 { // double sweep is exact on trees
		t.Fatalf("HopDiameterApprox = %d", a)
	}
	parent, hops2 := g.BFSTree(3)
	if parent[3] != NoEdge || hops2[0] != 3 || hops2[6] != 3 {
		t.Fatalf("BFSTree from middle wrong: %v %v", parent, hops2)
	}
}

// TestBFSTreeSmallestParentEdge: a vertex's BFS parent is its
// smallest-id edge into the previous layer, not the edge to whichever
// previous-layer vertex the queue reached first.
func TestBFSTreeSmallestParentEdge(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	e23 := g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(1, 3, 1)
	if parent, _ := g.BFSTree(0); parent[3] != e23 {
		t.Fatalf("parent of 3 is edge %d, want the smallest edge into layer 1 (%d)", parent[3], e23)
	}
	r := ErdosRenyi(200, 0.05, 5, 9)
	parent, hops := r.BFSTree(7)
	for v := 0; v < r.N(); v++ {
		want := NoEdge
		for _, h := range r.Neighbors(Vertex(v)) {
			if hops[v] > 0 && hops[h.To] == hops[v]-1 && (want == NoEdge || h.ID < want) {
				want = h.ID
			}
		}
		if parent[v] != want {
			t.Fatalf("vertex %d: parent %d, smallest edge into the previous layer %d", v, parent[v], want)
		}
	}
}

func TestDijkstraOnKnownGraph(t *testing.T) {
	// Diamond: 0-1 (1), 0-2 (4), 1-2 (1), 2-3 (1), 1-3 (5)
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(1, 3, 5)
	tr := g.Dijkstra(0)
	want := []float64{0, 1, 2, 3}
	for v, d := range tr.Dist {
		if d != want[v] {
			t.Fatalf("dist[%d]=%v want %v", v, d, want[v])
		}
	}
	path := tr.PathTo(g, 3)
	wantPath := []Vertex{0, 1, 2, 3}
	if len(path) != len(wantPath) {
		t.Fatalf("path %v", path)
	}
	for i := range path {
		if path[i] != wantPath[i] {
			t.Fatalf("path %v want %v", path, wantPath)
		}
	}
	ep := tr.EdgePathTo(g, 3)
	if len(ep) != 3 {
		t.Fatalf("edge path %v", ep)
	}
	var s float64
	for _, id := range ep {
		s += g.Edge(id).W
	}
	if s != tr.Dist[3] {
		t.Fatalf("edge path weight %v != dist %v", s, tr.Dist[3])
	}
}

func TestDijkstraBounded(t *testing.T) {
	g := Path(10, 1)
	tr := g.DijkstraBounded(0, 4.5)
	for v, d := range tr.Dist {
		if v <= 4 && d != float64(v) {
			t.Fatalf("dist[%d]=%v", v, d)
		}
		if v > 4 && !math.IsInf(d, 1) {
			t.Fatalf("dist[%d]=%v should be unreached", v, d)
		}
	}
}

func TestDijkstraMultiSource(t *testing.T) {
	g := Path(9, 1)
	dist, nearest, parent := g.DijkstraMultiSource([]Vertex{0, 8}, Inf)
	if dist[4] != 4 {
		t.Fatalf("dist[4]=%v", dist[4])
	}
	if nearest[1] != 0 || nearest[7] != 8 {
		t.Fatalf("nearest = %v", nearest)
	}
	if parent[0] != NoEdge || parent[8] != NoEdge {
		t.Fatal("sources must have no parent")
	}
	for v := 1; v < 8; v++ {
		if parent[v] == NoEdge {
			t.Fatalf("vertex %d missing forest parent", v)
		}
	}
}

func TestBellmanFordHopsMatchesBoundedHops(t *testing.T) {
	g := ErdosRenyi(40, 0.15, 10, 7)
	// h = n-1 must equal exact Dijkstra.
	bf := g.BellmanFordHops(0, g.N()-1)
	dj := g.Dijkstra(0).Dist
	for v := range bf {
		if math.Abs(bf[v]-dj[v]) > 1e-9 {
			t.Fatalf("BF full disagrees with Dijkstra at %d: %v vs %v", v, bf[v], dj[v])
		}
	}
	// h-hop distances are monotone non-increasing in h and >= true dist.
	prev := g.BellmanFordHops(0, 1)
	for h := 2; h <= 6; h++ {
		cur := g.BellmanFordHops(0, h)
		for v := range cur {
			if cur[v] > prev[v]+1e-12 {
				t.Fatalf("h-hop distance increased with h at v=%d", v)
			}
			if cur[v] < dj[v]-1e-9 {
				t.Fatalf("h-hop distance below true distance at v=%d", v)
			}
		}
		prev = cur
	}
}

func TestBellmanFordHopCountSemantics(t *testing.T) {
	// Path with a heavy shortcut: 0-1-2 each weight 1, plus 0-2 weight 10.
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 10)
	d1 := g.BellmanFordHops(0, 1)
	if d1[2] != 10 {
		t.Fatalf("1-hop dist to 2 = %v, want 10", d1[2])
	}
	d2 := g.BellmanFordHops(0, 2)
	if d2[2] != 2 {
		t.Fatalf("2-hop dist to 2 = %v, want 2", d2[2])
	}
}

func TestHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newVertexHeap(200)
	keys := make(map[Vertex]float64)
	for i := 0; i < 200; i++ {
		v := Vertex(i)
		k := rng.Float64() * 100
		h.PushOrDecrease(v, k)
		keys[v] = k
	}
	// Random decreases.
	for i := 0; i < 500; i++ {
		v := Vertex(rng.Intn(200))
		k := keys[v] * rng.Float64()
		if h.PushOrDecrease(v, k) {
			keys[v] = k
		}
	}
	var prev float64 = -1
	for h.Len() > 0 {
		v, k := h.Pop()
		if k < prev {
			t.Fatalf("heap pop order violated: %v after %v", k, prev)
		}
		if math.Abs(keys[v]-k) > 1e-12 {
			t.Fatalf("popped key mismatch for %d: %v vs %v", v, k, keys[v])
		}
		prev = k
	}
}

func TestHeapDecreaseIgnoresIncrease(t *testing.T) {
	h := newVertexHeap(4)
	h.PushOrDecrease(0, 5)
	if h.PushOrDecrease(0, 7) {
		t.Fatal("increase must be ignored")
	}
	if !h.PushOrDecrease(0, 3) {
		t.Fatal("decrease must apply")
	}
	v, k := h.Pop()
	if v != 0 || k != 3 {
		t.Fatalf("pop = %d,%v", v, k)
	}
}

func TestGenerators(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n    int
	}{
		{"path", Path(17, 1), 17},
		{"cycle", Cycle(12, 2), 12},
		{"star", Star(9, 1), 9},
		{"grid", Grid(5, 7, 4, 1), 35},
		{"tree", RandomTree(50, 8, 2), 50},
		{"er", ErdosRenyi(60, 0.1, 16, 3), 60},
		{"complete", Complete(12, 10, 4), 12},
		{"geometric", RandomGeometric(64, 2, 5), 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n {
				t.Fatalf("n=%d want %d", tt.g.N(), tt.n)
			}
			if !tt.g.Connected() {
				t.Fatal("generator produced disconnected graph")
			}
			if err := tt.g.Validate(); err != nil {
				t.Fatal(err)
			}
			minW, _ := tt.g.MinMaxWeight()
			if tt.g.M() > 0 && minW < 1-1e-9 {
				t.Fatalf("min weight %v < 1", minW)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := ErdosRenyi(40, 0.2, 10, 99)
	b := ErdosRenyi(40, 0.2, 10, 99)
	if a.M() != b.M() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatal("same seed produced different edges")
		}
	}
	c := ErdosRenyi(40, 0.2, 10, 100)
	same := a.M() == c.M()
	if same {
		for i := range a.Edges() {
			if a.Edges()[i] != c.Edges()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestHardInstance(t *testing.T) {
	g := HardInstance(100, 1000, 1)
	if !g.Connected() {
		t.Fatal("hard instance disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, maxW := g.MinMaxWeight()
	if maxW != 1000 {
		t.Fatalf("expected a heavy edge of weight 1000, max=%v", maxW)
	}
}

func TestUnitBallGraphTriangleStretch(t *testing.T) {
	// In a unit-ball graph, shortest-path distance >= Euclidean distance
	// (after the common scale factor).
	pts := RandomPoints(48, 2, 1, 11)
	g := UnitBallGraph(pts, 0.35)
	if !g.Connected() {
		t.Fatal("disconnected")
	}
	d := g.Dijkstra(0).Dist
	// Recover the scale from any edge.
	e := g.Edges()[0]
	scale := e.W / pts.Dist(int(e.U), int(e.V))
	for v := 1; v < g.N(); v++ {
		if d[v] < pts.Dist(0, v)*scale-1e-6 {
			t.Fatalf("graph distance below Euclidean at %d", v)
		}
	}
}

func TestEstimateDoublingDimension(t *testing.T) {
	geo := RandomGeometric(128, 2, 3)
	dd := EstimateDoublingDimension(geo, 6, 1)
	if dd > 6.5 {
		t.Fatalf("geometric graph ddim estimate too large: %v", dd)
	}
	if dd < 0 {
		t.Fatalf("negative ddim %v", dd)
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Path(6, 2)
	if e := g.Eccentricity(0); e != 10 {
		t.Fatalf("ecc = %v", e)
	}
	if d := g.WeightedDiameterApprox(); d != 10 {
		t.Fatalf("diam = %v", d)
	}
	if d := g.HopEccentricity(2); d != 3 {
		t.Fatalf("hop ecc = %d", d)
	}
}

// Property: on any random connected graph, Dijkstra distances satisfy the
// triangle inequality over edges and the parent structure is consistent.
func TestDijkstraPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(uint64(seed)%30)
		g := ErdosRenyi(n, 0.15, 12, seed)
		tr := g.Dijkstra(0)
		for _, e := range g.Edges() {
			if tr.Dist[e.V] > tr.Dist[e.U]+e.W+1e-9 ||
				tr.Dist[e.U] > tr.Dist[e.V]+e.W+1e-9 {
				return false
			}
		}
		for v := 1; v < g.N(); v++ {
			id := tr.Parent[v]
			if id == NoEdge {
				return false // connected => all reachable
			}
			u := g.Edge(id).Other(Vertex(v))
			if math.Abs(tr.Dist[u]+g.Edge(id).W-tr.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS hop distances are exactly the unweighted shortest paths
// (cross-check against Dijkstra on the unit-reweighted graph).
func TestBFSMatchesUnitDijkstraQuick(t *testing.T) {
	f := func(seed int64) bool {
		n := 15 + int(uint64(seed)%25)
		g := ErdosRenyi(n, 0.2, 9, seed)
		unit, err := g.Reweighted(func(EdgeID, Edge) float64 { return 1 })
		if err != nil {
			return false
		}
		hops := g.BFSHops(0)
		dj := unit.Dijkstra(0).Dist
		for v := range hops {
			if float64(hops[v]) != dj[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllPairsSymmetry(t *testing.T) {
	g := ErdosRenyi(30, 0.2, 5, 13)
	d := g.AllPairs()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if math.Abs(d[u][v]-d[v][u]) > 1e-9 {
				t.Fatalf("asymmetry d[%d][%d]", u, v)
			}
		}
		if d[u][u] != 0 {
			t.Fatalf("d[%d][%d] != 0", u, u)
		}
	}
}

func TestNormalizeWeights(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 10)
	norm, scale, err := g.NormalizeWeights()
	if err != nil {
		t.Fatal(err)
	}
	if scale != 4 {
		t.Fatalf("scale %v", scale)
	}
	minW, maxW := norm.MinMaxWeight()
	if minW != 1 || maxW != 2.5 {
		t.Fatalf("normalized weights [%v,%v]", minW, maxW)
	}
	// Shortest paths scale consistently.
	if d := norm.Dijkstra(0).Dist[2] * scale; d != g.Dijkstra(0).Dist[2] {
		t.Fatalf("distance scaling broken: %v", d)
	}
	// Empty graph: identity.
	e := New(2)
	same, s, err := e.NormalizeWeights()
	if err != nil || s != 1 || same.M() != 0 {
		t.Fatalf("empty normalize: %v %v", s, err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(5, 1)
	h := g.DegreeHistogram()
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("hist = %v", h)
	}
}

// TestMustAddEdge pins both sides of MustAddEdge's contract: valid
// generator-style inputs never panic, and each AddEdge rejection
// (self loop, out-of-range endpoint, non-positive or non-finite
// weight) panics with the underlying error rather than corrupting the
// graph.
func TestMustAddEdge(t *testing.T) {
	g := New(3)
	if id := g.MustAddEdge(0, 1, 1.5); id != 0 {
		t.Fatalf("id = %d, want 0", id)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("self loop", func() { g.MustAddEdge(1, 1, 1) })
	mustPanic("out of range", func() { g.MustAddEdge(0, 7, 1) })
	mustPanic("negative vertex", func() { g.MustAddEdge(-1, 0, 1) })
	mustPanic("zero weight", func() { g.MustAddEdge(0, 2, 0) })
	mustPanic("negative weight", func() { g.MustAddEdge(0, 2, -2) })
	mustPanic("inf weight", func() { g.MustAddEdge(0, 2, math.Inf(1)) })
	mustPanic("nan weight", func() { g.MustAddEdge(0, 2, math.NaN()) })
	// The failed inserts must not have touched the graph.
	if g.M() != 1 || g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatalf("graph mutated by rejected inserts: m=%d", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
