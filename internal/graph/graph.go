package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Vertex identifies a vertex of a Graph. Vertices are dense in [0, N).
type Vertex int32

// EdgeID identifies an undirected edge of a Graph, dense in [0, M).
type EdgeID int32

// NoEdge is the sentinel EdgeID meaning "no edge" (e.g. tree roots).
const NoEdge EdgeID = -1

// NoVertex is the sentinel Vertex meaning "no vertex".
const NoVertex Vertex = -1

// Edge is an undirected weighted edge.
type Edge struct {
	U, V Vertex
	W    float64
}

// Other returns the endpoint of e that is not x.
func (e Edge) Other(x Vertex) Vertex {
	if e.U == x {
		return e.V
	}
	return e.U
}

// Half is one directed half of an undirected edge, stored in adjacency
// lists: the far endpoint, the undirected edge id, and the weight. The
// field order packs it into 16 bytes and matches the on-disk HALF
// record of snapshot files (docs/STORE.md), so snapshot loading can
// copy adjacency arrays wholesale on little-endian hosts.
type Half struct {
	To Vertex
	ID EdgeID
	W  float64
}

// Graph is an undirected weighted graph. The zero value is unusable; use
// New.
//
// A Graph has two representations. While edges are being added it keeps
// a per-vertex adjacency slice (the build representation). Freeze
// converts it to a CSR (compressed sparse row) layout — one flat []Half
// plus per-vertex offsets — which is cache-friendlier for traversal and
// additionally indexes every edge by its position ("slot") inside each
// endpoint's adjacency list and by its endpoint pair. All read methods
// work in both states; AddEdge on a frozen graph transparently thaws it
// back to the build representation first.
type Graph struct {
	n     int
	edges []Edge
	// Build representation: adj[v] is v's adjacency list. nil once
	// frozen.
	adj [][]Half
	// Frozen (CSR) representation. halves holds the adjacency lists
	// back to back in vertex order: vertex v's neighbors are
	// halves[offsets[v]:offsets[v+1]]. Adjacency order is identical to
	// the build representation (edge-insertion order per vertex).
	frozen  bool
	offsets []int32 // len n+1
	halves  []Half  // len 2M
	// slotU[id]/slotV[id] is the index of edge id within the adjacency
	// list of its U/V endpoint — the O(1) "adjacency slot" used by the
	// CONGEST engine to give programs dense per-neighbor state.
	// Freeze fills them eagerly; the snapshot/subgraph load paths
	// (FromFrozenParts, FrozenSubgraph) leave them nil and slotIndexes
	// builds them on first Slot call — the serve query path never
	// needs slots, so cold starts skip the work entirely.
	slotU, slotV []int32
	slotOnce     sync.Once
	// nbr maps an ordered endpoint pair to the first edge between them
	// (in the source's adjacency order), making EdgeBetween O(1).
	// Freeze builds it eagerly; FromFrozenParts and FrozenSubgraph
	// leave it nil and nbrIndex builds it on first EdgeBetween —
	// the map is by far the most expensive part of freezing, and the
	// snapshot cold-start path usually never needs it.
	nbr     map[int64]EdgeID
	nbrOnce sync.Once
}

// Errors returned by Graph mutation methods.
var (
	ErrSelfLoop     = errors.New("graph: self loop")
	ErrBadWeight    = errors.New("graph: weight must be positive and finite")
	ErrVertexRange  = errors.New("graph: vertex out of range")
	ErrDisconnected = errors.New("graph: graph is not connected")
)

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{
		n:   n,
		adj: make([][]Half, n),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u,v} with weight w and returns its
// id. Parallel edges are permitted (the lightest matters for shortest
// paths); self loops and non-positive weights are rejected. Adding to a
// frozen graph thaws it back to the build representation.
func (g *Graph) AddEdge(u, v Vertex, w float64) (EdgeID, error) {
	if u == v {
		return NoEdge, fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
	}
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return NoEdge, fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, g.n)
	}
	if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
		return NoEdge, fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	if g.frozen {
		g.thaw()
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Half{To: v, W: w, ID: id})
	g.adj[v] = append(g.adj[v], Half{To: u, W: w, ID: id})
	return id, nil
}

// nbrKey packs an ordered (from, to) endpoint pair into one map key.
func nbrKey(from, to Vertex) int64 {
	return int64(uint32(from))<<32 | int64(uint32(to))
}

// Freeze converts the graph to its CSR representation and builds the
// slot and endpoint-pair indexes. Idempotent; O(n+m). The CONGEST
// engine freezes its graph on construction; generators may call it
// eagerly once done mutating. Freeze must not be called concurrently
// with other methods (reads of a frozen graph are safe to share).
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	m := len(g.edges)
	g.offsets = make([]int32, g.n+1)
	for v := range g.adj {
		g.offsets[v+1] = g.offsets[v] + int32(len(g.adj[v]))
	}
	g.halves = make([]Half, 0, 2*m)
	for v := range g.adj {
		g.halves = append(g.halves, g.adj[v]...)
	}
	g.slotU = make([]int32, m)
	g.slotV = make([]int32, m)
	g.nbr = make(map[int64]EdgeID, 2*m)
	for v := 0; v < g.n; v++ {
		hs := g.halves[g.offsets[v]:g.offsets[v+1]]
		for i, h := range hs {
			if g.edges[h.ID].U == Vertex(v) {
				g.slotU[h.ID] = int32(i)
			} else {
				g.slotV[h.ID] = int32(i)
			}
			key := nbrKey(Vertex(v), h.To)
			if _, ok := g.nbr[key]; !ok {
				g.nbr[key] = h.ID
			}
		}
	}
	g.adj = nil
	g.frozen = true
}

// Frozen reports whether the graph is in its CSR representation.
func (g *Graph) Frozen() bool { return g.frozen }

// thaw rebuilds the build representation from the CSR layout so that
// edges can be added again.
func (g *Graph) thaw() {
	adj := make([][]Half, g.n)
	for v := 0; v < g.n; v++ {
		hs := g.halves[g.offsets[v]:g.offsets[v+1]]
		if len(hs) > 0 {
			adj[v] = append([]Half(nil), hs...)
		}
	}
	g.adj = adj
	g.frozen = false
	g.offsets, g.halves, g.slotU, g.slotV, g.nbr = nil, nil, nil, nil, nil
}

// Slot returns the index of edge id within the adjacency list of its
// endpoint v — i.e. Neighbors(v)[Slot(v, id)].ID == id — or -1 if v is
// not an endpoint of the edge. O(1) on a frozen graph.
func (g *Graph) Slot(v Vertex, id EdgeID) int {
	if int(id) < 0 || int(id) >= len(g.edges) || int(v) < 0 || int(v) >= g.n {
		return -1
	}
	if !g.frozen {
		for i, h := range g.adj[v] {
			if h.ID == id {
				return i
			}
		}
		return -1
	}
	e := g.edges[id]
	slotU, slotV := g.slotIndexes()
	switch v {
	case e.U:
		return int(slotU[id])
	case e.V:
		return int(slotV[id])
	}
	return -1
}

// slotIndexes returns the adjacency-slot arrays of a frozen graph,
// building them on first use when the graph was assembled without them
// (FromFrozenParts, FrozenSubgraph). Safe for concurrent readers; the
// construction is the same loop Freeze runs, so the values are
// identical either way.
func (g *Graph) slotIndexes() ([]int32, []int32) {
	g.slotOnce.Do(func() {
		if g.slotU != nil {
			return
		}
		m := len(g.edges)
		slotU := make([]int32, m)
		slotV := make([]int32, m)
		for v := 0; v < g.n; v++ {
			for i, h := range g.halves[g.offsets[v]:g.offsets[v+1]] {
				if g.edges[h.ID].U == Vertex(v) {
					slotU[h.ID] = int32(i)
				} else {
					slotV[h.ID] = int32(i)
				}
			}
		}
		g.slotU, g.slotV = slotU, slotV
	})
	return g.slotU, g.slotV
}

// EdgeBetween returns the first edge between u and v (in u's adjacency
// order) and whether one exists. O(1) on a frozen graph.
func (g *Graph) EdgeBetween(u, v Vertex) (EdgeID, bool) {
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return NoEdge, false
	}
	if g.frozen {
		id, ok := g.nbrIndex()[nbrKey(u, v)]
		if !ok {
			return NoEdge, false
		}
		return id, true
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.ID, true
		}
	}
	return NoEdge, false
}

// MustAddEdge is AddEdge for callers whose inputs satisfy AddEdge's
// contract by construction — distinct in-range endpoints and a
// positive, finite weight. The generators qualify: their endpoints are
// loop indices in [0, n) with u != v, and every weight is either a
// positive constant or 1 + rng.Float64()·(maxW−1) >= 1 for the
// finite maxW they are called with, so the panic below is unreachable
// from them (TestMustAddEdge pins both directions). Code handling
// untrusted input — file ingestion, CLI parameters — must use AddEdge
// and propagate the error instead; a panic here is a
// program-construction bug, never a data error.
func (g *Graph) MustAddEdge(u, v Vertex, w float64) EdgeID {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the edge list. The returned slice is owned by the graph;
// callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the adjacency list of v. The returned slice is owned
// by the graph; callers must not mutate it. On a frozen graph this is a
// subslice of the flat CSR array (no pointer chase).
func (g *Graph) Neighbors(v Vertex) []Half {
	if g.frozen {
		return g.halves[g.offsets[v]:g.offsets[v+1]]
	}
	return g.adj[v]
}

// Degree returns the degree of v (counting parallel edges).
func (g *Graph) Degree(v Vertex) int {
	if g.frozen {
		return int(g.offsets[v+1] - g.offsets[v])
	}
	return len(g.adj[v])
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// WeightOf sums the weights of the given edges.
func (g *Graph) WeightOf(ids []EdgeID) float64 {
	var s float64
	for _, id := range ids {
		s += g.edges[id].W
	}
	return s
}

// MinMaxWeight returns the minimum and maximum edge weight, or (0,0) for
// an edgeless graph.
func (g *Graph) MinMaxWeight() (minW, maxW float64) {
	if len(g.edges) == 0 {
		return 0, 0
	}
	minW, maxW = g.edges[0].W, g.edges[0].W
	for _, e := range g.edges[1:] {
		if e.W < minW {
			minW = e.W
		}
		if e.W > maxW {
			maxW = e.W
		}
	}
	return minW, maxW
}

// AspectRatio returns max edge weight / min edge weight (Λ in the paper),
// or 1 for graphs with fewer than one edge.
func (g *Graph) AspectRatio() float64 {
	minW, maxW := g.MinMaxWeight()
	if minW == 0 {
		return 1
	}
	return maxW / minW
}

// Clone returns a deep copy of g in the build representation (the copy
// is mutable regardless of whether g was frozen).
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for v := 0; v < g.n; v++ {
		hs := g.Neighbors(Vertex(v))
		if len(hs) > 0 {
			c.adj[v] = append([]Half(nil), hs...)
		}
	}
	return c
}

// Subgraph returns the subgraph of g on the same vertex set containing
// exactly the given edges. Edge ids are re-assigned in the order given.
func (g *Graph) Subgraph(ids []EdgeID) *Graph {
	s := New(g.n)
	for _, id := range ids {
		e := g.edges[id]
		s.MustAddEdge(e.U, e.V, e.W)
	}
	return s
}

// FrozenSubgraph is Subgraph for frozen graphs, assembling the result
// directly in CSR form. It is bit-identical to g.Subgraph(ids) followed
// by Freeze — same edge renumbering (position in ids), same per-vertex
// adjacency order — but does no per-edge map or append work, which is
// what keeps snapshot cold-starts in the milliseconds. Dense sorted
// subsets (a light spanner keeps most of the graph) take a sequential
// filter over g's own halves; the general case counts degrees,
// prefix-sums the offsets and scatters. Like MustAddEdge, it panics on
// out-of-range ids (callers on the disk-loading path validate ids
// first); duplicates are the caller's responsibility, exactly as with
// Subgraph. The slot and endpoint-pair indexes are built lazily on
// first use.
func (g *Graph) FrozenSubgraph(ids []EdgeID) *Graph {
	if !g.frozen {
		panic("graph: FrozenSubgraph on an unfrozen graph")
	}
	m := len(ids)
	s := &Graph{
		n:       g.n,
		frozen:  true,
		edges:   make([]Edge, m),
		offsets: make([]int32, g.n+1),
		halves:  make([]Half, 2*m),
	}
	for i, id := range ids {
		s.edges[i] = g.edges[id]
	}
	if sortedDense(ids, len(g.edges)) && g.filterScan(ids, s) {
		return s
	}
	for i := range s.offsets {
		s.offsets[i] = 0
	}
	for _, e := range s.edges {
		s.offsets[e.U+1]++
		s.offsets[e.V+1]++
	}
	for v := 0; v < g.n; v++ {
		s.offsets[v+1] += s.offsets[v]
	}
	cursor := make([]int32, g.n)
	for i, e := range s.edges {
		s.halves[s.offsets[e.U]+cursor[e.U]] = Half{To: e.V, ID: EdgeID(i), W: e.W}
		cursor[e.U]++
		s.halves[s.offsets[e.V]+cursor[e.V]] = Half{To: e.U, ID: EdgeID(i), W: e.W}
		cursor[e.V]++
	}
	return s
}

// sortedDense reports whether ids is strictly increasing and covers at
// least a quarter of the base edge set — the regime where filterScan's
// sequential pass beats the cache-missing scatter.
func sortedDense(ids []EdgeID, baseM int) bool {
	if 4*len(ids) < baseM {
		return false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// filterScan assembles s's CSR arrays with one sequential pass over g's
// halves, keeping those whose edge id is in ids (remapped to the id's
// position). The kept halves land in scatter order exactly when each of
// g's adjacency lists visits the kept edges in increasing base id —
// true for every graph built through AddEdge and preserved by Freeze,
// FrozenSubgraph and the snapshot round trip. That precondition is
// checked inline; on a violation filterScan reports false with
// s.offsets partially written, and the caller falls back to the
// scatter.
func (g *Graph) filterScan(ids []EdgeID, s *Graph) bool {
	newID := make([]int32, len(g.edges))
	for i := range newID {
		newID[i] = -1
	}
	for i, id := range ids {
		newID[id] = int32(i)
	}
	cursor := int32(0)
	for v := 0; v < g.n; v++ {
		s.offsets[v] = cursor
		last := int32(-1)
		for _, h := range g.halves[g.offsets[v]:g.offsets[v+1]] {
			ni := newID[h.ID]
			if ni < 0 {
				continue
			}
			if ni <= last {
				return false
			}
			last = ni
			s.halves[cursor] = Half{To: h.To, ID: EdgeID(ni), W: h.W}
			cursor++
		}
	}
	s.offsets[g.n] = cursor
	return true
}

// nbrIndex returns the endpoint-pair index of a frozen graph, building
// it on first use when the graph was assembled without one
// (FromFrozenParts, FrozenSubgraph). Safe for concurrent readers.
func (g *Graph) nbrIndex() map[int64]EdgeID {
	g.nbrOnce.Do(func() {
		if g.nbr != nil {
			return
		}
		nbr := make(map[int64]EdgeID, 2*len(g.edges))
		for v := 0; v < g.n; v++ {
			for _, h := range g.halves[g.offsets[v]:g.offsets[v+1]] {
				key := nbrKey(Vertex(v), h.To)
				if _, ok := nbr[key]; !ok {
					nbr[key] = h.ID
				}
			}
		}
		g.nbr = nbr
	})
	return g.nbr
}

// Reweighted returns a copy of g with every edge weight mapped through f.
// f must return positive finite weights.
func (g *Graph) Reweighted(f func(id EdgeID, e Edge) float64) (*Graph, error) {
	c := New(g.n)
	for id, e := range g.edges {
		if _, err := c.AddEdge(e.U, e.V, f(EdgeID(id), e)); err != nil {
			return nil, fmt.Errorf("reweight edge %d: %w", id, err)
		}
	}
	return c, nil
}

// NormalizeWeights returns a copy of g rescaled so the minimum edge
// weight is exactly 1 — the paper's §2 normalisation (minimum weight 1,
// maximum poly(n)). The returned scale factor maps new weights back to
// the originals (w_old = w_new · scale).
func (g *Graph) NormalizeWeights() (*Graph, float64, error) {
	minW, _ := g.MinMaxWeight()
	if minW <= 0 || g.M() == 0 {
		return g.Clone(), 1, nil
	}
	out, err := g.Reweighted(func(_ EdgeID, e Edge) float64 { return e.W / minW })
	if err != nil {
		return nil, 0, fmt.Errorf("normalize: %w", err)
	}
	return out, minW, nil
}

// Connected reports whether g is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := make([]Vertex, 0, g.n)
	stack = append(stack, 0)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Neighbors(v) {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	return count == g.n
}

// Components returns a component id per vertex and the number of
// components.
func (g *Graph) Components() ([]int32, int) {
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var next int32
	stack := make([]Vertex, 0, 64)
	for s := Vertex(0); int(s) < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.Neighbors(v) {
				if comp[h.To] < 0 {
					comp[h.To] = next
					stack = append(stack, h.To)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// BFSHops returns, for every vertex, its hop distance (number of edges,
// ignoring weights) from src; unreachable vertices get -1.
func (g *Graph) BFSHops(src Vertex) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]Vertex, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Neighbors(v) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// BFSHopsMasked is BFSHops restricted to the allowed edges (indexed by
// edge id; nil allows all). Unreachable vertices get -1.
func (g *Graph) BFSHopsMasked(src Vertex, allowed []bool) []int32 {
	if allowed == nil {
		return g.BFSHops(src)
	}
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]Vertex, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Neighbors(v) {
			if allowed[h.ID] && dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// ComponentMask returns the mask of vertices reachable from src without
// entering a blocked vertex (blocked may be nil). src itself is always
// in the mask, even if blocked.
func (g *Graph) ComponentMask(src Vertex, blocked []bool) []bool {
	mask := make([]bool, g.n)
	mask[src] = true
	queue := make([]Vertex, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Neighbors(v) {
			if !mask[h.To] && (blocked == nil || !blocked[h.To]) {
				mask[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	return mask
}

// BFSTree returns the canonical BFS tree from src: per-vertex parent
// edge id (NoEdge for src and unreachable vertices) and hop distances.
// A vertex's parent is its smallest-id edge into the previous layer —
// the tree the distributed BFS builds, whose inboxes arrive in edge-id
// order.
func (g *Graph) BFSTree(src Vertex) (parent []EdgeID, hops []int32) {
	parent = make([]EdgeID, g.n)
	hops = make([]int32, g.n)
	for i := range parent {
		parent[i] = NoEdge
		hops[i] = -1
	}
	hops[src] = 0
	queue := make([]Vertex, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.Neighbors(v) {
			switch {
			case hops[h.To] < 0:
				hops[h.To] = hops[v] + 1
				parent[h.To] = h.ID
				queue = append(queue, h.To)
			case hops[h.To] == hops[v]+1 && h.ID < parent[h.To]:
				parent[h.To] = h.ID
			}
		}
	}
	return parent, hops
}

// HopEccentricity returns the maximum finite hop distance from src.
func (g *Graph) HopEccentricity(src Vertex) int {
	dist := g.BFSHops(src)
	ecc := 0
	for _, d := range dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// HopDiameter returns the exact hop-diameter of g (the D of the paper),
// computed by a BFS from every vertex — O(n·m); intended for test-scale
// graphs. Use HopDiameterApprox for large inputs.
func (g *Graph) HopDiameter() int {
	d := 0
	for v := Vertex(0); int(v) < g.n; v++ {
		if e := g.HopEccentricity(v); e > d {
			d = e
		}
	}
	return d
}

// HopDiameterApprox returns a 2-approximation of the hop-diameter using
// two BFS passes (the eccentricity of the farthest vertex from vertex 0).
// The true diameter lies in [result/2, result] ... more precisely the
// returned value is between D/2 and D for connected graphs; callers that
// need an upper bound should double it.
func (g *Graph) HopDiameterApprox() int {
	if g.n == 0 {
		return 0
	}
	dist := g.BFSHops(0)
	far := Vertex(0)
	for v, d := range dist {
		if d > dist[far] {
			far = Vertex(v)
		}
	}
	return g.HopEccentricity(far)
}

// DegreeHistogram returns counts of vertex degrees (index = degree).
func (g *Graph) DegreeHistogram() []int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(Vertex(v)); d > maxDeg {
			maxDeg = d
		}
	}
	hist := make([]int, maxDeg+1)
	for v := 0; v < g.n; v++ {
		hist[g.Degree(Vertex(v))]++
	}
	return hist
}

// Validate performs internal consistency checks, returning a descriptive
// error on the first violation. Intended for tests and fuzzing harnesses.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.n)
	}
	if !g.frozen && len(g.adj) != g.n {
		return fmt.Errorf("graph: adj length %d != n %d", len(g.adj), g.n)
	}
	if g.frozen {
		if len(g.offsets) != g.n+1 {
			return fmt.Errorf("graph: offsets length %d != n+1 %d", len(g.offsets), g.n+1)
		}
		if int(g.offsets[g.n]) != len(g.halves) || len(g.halves) != 2*len(g.edges) {
			return fmt.Errorf("graph: CSR halves length %d, offsets end %d, 2m %d",
				len(g.halves), g.offsets[g.n], 2*len(g.edges))
		}
	}
	degSum := 0
	for v := 0; v < g.n; v++ {
		hs := g.Neighbors(Vertex(v))
		degSum += len(hs)
		for i, h := range hs {
			if int(h.To) < 0 || int(h.To) >= g.n {
				return fmt.Errorf("graph: vertex %d has neighbor %d out of range", v, h.To)
			}
			if int(h.ID) < 0 || int(h.ID) >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d references edge %d out of range", v, h.ID)
			}
			e := g.edges[h.ID]
			if e.W != h.W {
				return fmt.Errorf("graph: half-edge weight mismatch on edge %d", h.ID)
			}
			if !((e.U == Vertex(v) && e.V == h.To) || (e.V == Vertex(v) && e.U == h.To)) {
				return fmt.Errorf("graph: half-edge endpoints mismatch on edge %d", h.ID)
			}
			if g.frozen && g.Slot(Vertex(v), h.ID) != i {
				return fmt.Errorf("graph: slot index stale for edge %d at vertex %d", h.ID, v)
			}
		}
	}
	if degSum != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m %d", degSum, 2*len(g.edges))
	}
	for id, e := range g.edges {
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self loop", id)
		}
		if !(e.W > 0) {
			return fmt.Errorf("graph: edge %d has non-positive weight", id)
		}
	}
	return nil
}
