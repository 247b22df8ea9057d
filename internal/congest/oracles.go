package congest

// Sequential oracles shared by the fault-mode stage validators (see
// FaultPlan and the Validate stage option): cheap central recomputations
// a pipeline stage's distributed outputs are checked against before the
// pipeline commits to the next stage. They follow the repo-wide
// bit-identity discipline — the oracle performs the same float
// operations in the same order as the program it certifies, so the
// comparison is exact equality, not tolerance-based.

import (
	"fmt"
	"math"
	"slices"

	"lightnet/internal/graph"
)

// CheckBFS validates distributed BFS outputs against the sequential hop
// oracle want (e.g. graph.BFSHopsMasked over the same allowed edges;
// nil allows all): every surviving vertex has the oracle depth, and
// every non-root survivor's parent is its smallest-id allowed edge into
// the previous layer — the canonical tree of graph.BFSTree, which a
// fault-free run builds. alive is the surviving-vertex mask (nil: all).
func CheckBFS(g *graph.Graph, rt graph.Vertex, alive, allowed []bool,
	parent []graph.EdgeID, depth []int32, want []int32) error {
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		if depth[v] != want[v] {
			return fmt.Errorf("vertex %d at BFS depth %d, oracle says %d", v, depth[v], want[v])
		}
		if graph.Vertex(v) == rt || want[v] < 0 {
			continue
		}
		canon := graph.NoEdge
		for _, h := range g.Neighbors(graph.Vertex(v)) {
			if (allowed == nil || allowed[h.ID]) && want[h.To] == want[v]-1 &&
				(canon == graph.NoEdge || h.ID < canon) {
				canon = h.ID
			}
		}
		if parent[v] != canon {
			return fmt.Errorf("vertex %d has parent edge %d, canonical BFS parent is %d", v, parent[v], canon)
		}
	}
	return nil
}

// FoldTree is the sequential twin of the tree-fold stage
// (StagePools.TreeFold): the sum of own over the tree given by parent
// and depth (depth < 0 marks vertices off the tree), folded bottom-up —
// each vertex adds its children's subtree sums to own[v] in ascending
// child id. It returns the root's (the depth-0 vertex's) subtree sum,
// bit-identical to the distributed fold on the same tree.
func FoldTree(g *graph.Graph, parent []graph.EdgeID, depth []int32, own []float64) float64 {
	var layers [][]graph.Vertex
	for v, d := range depth {
		if d < 0 {
			continue
		}
		for int(d) >= len(layers) {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], graph.Vertex(v))
	}
	acc := slices.Clone(own)
	// Children of one vertex share a layer, listed in ascending id, and
	// every deeper layer is folded before them.
	for d := len(layers) - 1; d > 0; d-- {
		for _, v := range layers[d] {
			acc[g.Edge(parent[v]).Other(v)] += acc[v]
		}
	}
	return acc[layers[0][0]]
}

// DistFromParents resolves per-vertex distances from rt along a parent
// forest: dist(v) = dist(parent(v)) + weight of the parent edge, where
// the weight is w[id] when w is non-nil (substitute weights) and the
// true edge weight otherwise. The per-vertex addition order is the one
// every distributed downcast in this repo performs, so the results
// compare bit-for-bit. Vertices with no parent chain reaching rt
// (including any on a malformed parent cycle) resolve to +Inf.
func DistFromParents(g *graph.Graph, rt graph.Vertex, parent []graph.EdgeID, w []float64) []float64 {
	n := g.N()
	dist := make([]float64, n)
	state := make([]int8, n) // 0 unresolved, 1 in progress, 2 done
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[rt] = 0
	state[rt] = 2
	var resolve func(v graph.Vertex) float64
	resolve = func(v graph.Vertex) float64 {
		if state[v] == 2 {
			return dist[v]
		}
		if state[v] == 1 { // parent cycle: unreachable
			return math.Inf(1)
		}
		state[v] = 1
		if id := parent[v]; id != graph.NoEdge {
			e := g.Edge(id)
			ew := e.W
			if w != nil {
				ew = w[id]
			}
			if d := resolve(e.Other(v)); !math.IsInf(d, 1) {
				dist[v] = d + ew
			}
		}
		state[v] = 2
		return dist[v]
	}
	for v := 0; v < n; v++ {
		resolve(graph.Vertex(v))
	}
	return dist
}

// CheckSPT certifies that parent encodes THE shortest-path tree from rt
// under the (generic, hash-perturbed — hence unique-shortest-path)
// weights w over the allowed edges (nil: all): every surviving vertex
// resolves to a finite distance, and no allowed edge can strictly relax
// it. Uniqueness of shortest paths makes the parent set this certifies
// the one the fault-free run produces, so a validated retry is
// bit-identical to the clean execution.
func CheckSPT(g *graph.Graph, rt graph.Vertex, alive []bool,
	parent []graph.EdgeID, w []float64, allowed []bool) error {
	dist := DistFromParents(g, rt, parent, w)
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		if math.IsInf(dist[v], 1) {
			return fmt.Errorf("vertex %d is not connected to the root by parent edges", v)
		}
	}
	for id, e := range g.Edges() {
		if allowed != nil && !allowed[id] {
			continue
		}
		ew := e.W
		if w != nil {
			ew = w[id]
		}
		if dist[e.U]+ew < dist[e.V] || dist[e.V]+ew < dist[e.U] {
			return fmt.Errorf("edge %d still relaxes the parent distances: not a shortest-path tree", id)
		}
	}
	return nil
}

// CheckDistDown validates a true-distance downcast output against
// DistFromParents on the same forest: exact equality at every surviving
// vertex.
func CheckDistDown(g *graph.Graph, rt graph.Vertex, alive []bool,
	parent []graph.EdgeID, got []float64) error {
	want := DistFromParents(g, rt, parent, nil)
	for v := 0; v < g.N(); v++ {
		if alive != nil && !alive[v] {
			continue
		}
		if math.IsInf(want[v], 1) {
			return fmt.Errorf("vertex %d is not connected to the root by parent edges", v)
		}
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d downcast distance %v, oracle says %v", v, got[v], want[v])
		}
	}
	return nil
}
