package congest

import (
	"math"
	"slices"
	"testing"

	"lightnet/internal/graph"
)

// foldPipeline runs a BFS stage from root and returns the pipeline and
// the tree, ready for a tree-fold stage.
func foldPipeline(t *testing.T, g *graph.Graph, root graph.Vertex, opts Options) (*Pipeline, []graph.EdgeID, []int32) {
	t.Helper()
	pipe := NewPipeline(g, opts)
	parent := make([]graph.EdgeID, g.N())
	depth := make([]int32, g.N())
	if _, err := pipe.RunStage("bfs", BFSFactory(root, parent, depth)); err != nil {
		t.Fatal(err)
	}
	return pipe, parent, depth
}

// foldValues returns per-vertex values whose float sum depends on the
// order of the additions.
func foldValues(n int) []float64 {
	own := make([]float64, n)
	for v := range own {
		own[v] = 1 / float64(v+3)
	}
	return own
}

// TestTreeFold: the fold reproduces FoldTree bit for bit at the root,
// every vertex holds its subtree sum, and the stage costs the tree's
// depth plus one rounds and one announcement and one sum per tree edge.
func TestTreeFold(t *testing.T) {
	g := graph.ErdosRenyi(80, 0.06, 5, 3)
	const root = 4
	pipe, parent, depth := foldPipeline(t, g, root, Options{Seed: 1})
	own := foldValues(g.N())
	sum := make([]float64, g.N())
	var pools StagePools
	stats, err := pipe.RunStage("fold", pools.TreeFold(g.N(), root, parent, own, sum))
	if err != nil {
		t.Fatal(err)
	}
	if want := FoldTree(g, parent, depth, own); math.Float64bits(sum[root]) != math.Float64bits(want) {
		t.Fatalf("root sum %v, sequential fold %v", sum[root], want)
	}
	// Each vertex's slot is its own value plus its children's slots,
	// added in ascending child id.
	want := slices.Clone(own)
	for u := range parent { // ascending u: children in id order
		if pe := parent[u]; pe != graph.NoEdge {
			want[g.Edge(pe).Other(graph.Vertex(u))] += sum[u]
		}
	}
	for v := range sum {
		if math.Float64bits(sum[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d holds %v, own value plus children's sums is %v", v, sum[v], want[v])
		}
	}
	if limit := int(maxDepth(depth)) + 1; stats.Rounds > limit {
		t.Fatalf("fold took %d rounds, want <= %d", stats.Rounds, limit)
	}
	if want := int64(2 * (g.N() - 1)); stats.Messages != want {
		t.Fatalf("fold sent %d messages, want %d", stats.Messages, want)
	}
}

// TestTreeFoldDeterministicAcrossWorkers: the root's sum is the same
// bits at every worker count.
func TestTreeFoldDeterministicAcrossWorkers(t *testing.T) {
	g := graph.RandomGeometric(60, 2, 5)
	own := foldValues(g.N())
	run := func(workers int) float64 {
		pipe, parent, _ := foldPipeline(t, g, 0, Options{Seed: 1, Workers: workers})
		sum := make([]float64, g.N())
		var pools StagePools
		if _, err := pipe.RunStage("fold", pools.TreeFold(g.N(), 0, parent, own, sum)); err != nil {
			t.Fatal(err)
		}
		return sum[0]
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d: root sum %v, workers=1 %v", w, got, ref)
		}
	}
}

// TestTreeFoldUnderFaults: delayed and duplicated messages leave the
// tree and the fold's bits unchanged — the BFS keeps the smaller edge
// on equal depth, the fold waits at its barrier for late announcements
// and ignores repeated sums.
func TestTreeFoldUnderFaults(t *testing.T) {
	g := graph.RandomGeometric(120, 2, 8)
	own := foldValues(g.N())
	wantParent, wantDepth := g.BFSTree(0)
	want := FoldTree(g, wantParent, wantDepth, own)
	plan := &FaultPlan{Seed: 3, Duplicate: 0.1, Delay: 0.2, MaxDelay: 3}
	pipe, parent, _ := foldPipeline(t, g, 0, Options{Seed: 1, Faults: plan})
	for v := range parent {
		if parent[v] != wantParent[v] {
			t.Fatalf("vertex %d: BFS parent %d under faults, canonical %d", v, parent[v], wantParent[v])
		}
	}
	sum := make([]float64, g.N())
	var pools StagePools
	if _, err := pipe.RunStage("fold", pools.TreeFold(g.N(), 0, parent, own, sum)); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sum[0]) != math.Float64bits(want) {
		t.Fatalf("faulted fold %v, fault-free %v", sum[0], want)
	}
	if fs := pipe.FaultStats(); fs.Duplicated == 0 || fs.Delayed == 0 {
		t.Fatalf("fault plan injected nothing: %+v", fs)
	}
}

// TestFloodWordFactory: the word reaches every vertex in O(D) rounds,
// also under a restricted stage.
func TestFloodWordFactory(t *testing.T) {
	g := graph.Grid(8, 8, 4, 2)
	pipe := NewPipeline(g, Options{Seed: 1})
	out := make([]int64, g.N())
	stats, err := pipe.RunStage("flood", FloodWordFactory(5, 424242, out))
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range out {
		if w != 424242 {
			t.Fatalf("vertex %d got %d", v, w)
		}
	}
	if stats.Rounds > 2*g.N() {
		t.Fatalf("flood took %d rounds", stats.Rounds)
	}
	// Restricted to a spanning tree the flood still reaches everyone.
	parent := make([]graph.EdgeID, g.N())
	depth := make([]int32, g.N())
	if _, err := pipe.RunStage("bfs", BFSFactory(0, parent, depth)); err != nil {
		t.Fatal(err)
	}
	tree := make([]bool, g.M())
	for _, e := range parent {
		if e != graph.NoEdge {
			tree[e] = true
		}
	}
	out2 := make([]int64, g.N())
	if _, err := pipe.RunStage("flood-tree", FloodWordFactory(0, 7, out2), Restrict(tree)); err != nil {
		t.Fatal(err)
	}
	for v, w := range out2 {
		if w != 7 {
			t.Fatalf("restricted flood: vertex %d got %d", v, w)
		}
	}
}

func maxDepth(depth []int32) int32 {
	var m int32
	for _, d := range depth {
		if d > m {
			m = d
		}
	}
	return m
}
