package main

import (
	"encoding/json"
	"fmt"
	"math"

	"lightnet"
)

// adjacency is the benchmark's own CSR view of an edge subset of a
// graph: the reference every output is checked against, written apart
// from the library's shortest-path code.
type adjacency struct {
	off []int32
	to  []int32
	w   []float64
}

func newAdjacency(g *lightnet.Graph, ids []lightnet.EdgeID) *adjacency {
	edges := g.Edges()
	a := &adjacency{off: make([]int32, g.N()+1)}
	for _, id := range ids {
		e := edges[id]
		a.off[e.U+1]++
		a.off[e.V+1]++
	}
	for v := 1; v < len(a.off); v++ {
		a.off[v] += a.off[v-1]
	}
	a.to = make([]int32, a.off[g.N()])
	a.w = make([]float64, a.off[g.N()])
	fill := append([]int32(nil), a.off[:g.N()]...)
	for _, id := range ids {
		e := edges[id]
		a.to[fill[e.U]], a.w[fill[e.U]] = int32(e.V), e.W
		fill[e.U]++
		a.to[fill[e.V]], a.w[fill[e.V]] = int32(e.U), e.W
		fill[e.V]++
	}
	return a
}

type item struct {
	v int32
	d float64
}

// minHeap is a binary heap of items by distance.
type minHeap []item

func (h *minHeap) push(it item) {
	*h = append(*h, it)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].d <= a[i].d {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *minHeap) pop() item {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1].d < a[c].d {
			c++
		}
		if a[i].d <= a[c].d {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// dist returns the distance from src to dst, or +Inf once every
// vertex left to settle is farther than bound.
func (a *adjacency) dist(src, dst int32, bound float64) float64 {
	best := map[int32]float64{src: 0}
	h := minHeap{{src, 0}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > bound {
			break
		}
		if it.v == dst {
			return it.d
		}
		if it.d > best[it.v] {
			continue
		}
		for i := a.off[it.v]; i < a.off[it.v+1]; i++ {
			u, d := a.to[i], it.d+a.w[i]
			if old, ok := best[u]; !ok || d < old {
				best[u] = d
				h.push(item{u, d})
			}
		}
	}
	return math.Inf(1)
}

// from returns distances from src that are final (+Inf when
// unreachable) at every vertex of targets: the sweep stops once all of
// them are settled.
func (a *adjacency) from(src int32, targets []int32) []float64 {
	d := make([]float64, len(a.off)-1)
	for i := range d {
		d[i] = math.Inf(1)
	}
	left := make(map[int32]bool, len(targets))
	for _, t := range targets {
		left[t] = true
	}
	d[src] = 0
	h := minHeap{{src, 0}}
	for len(h) > 0 && len(left) > 0 {
		it := h.pop()
		if it.d > d[it.v] {
			continue
		}
		delete(left, it.v)
		for i := a.off[it.v]; i < a.off[it.v+1]; i++ {
			u, nd := a.to[i], it.d+a.w[i]
			if nd < d[u] {
				d[u] = nd
				h.push(item{u, nd})
			}
		}
	}
	return d
}

// checkSpannerSample checks a deterministic sample of graph edges: each
// sampled edge (u,v,w) must have a spanner path of length ≤ t·w. It
// returns the number checked and the violations.
func checkSpannerSample(g *lightnet.Graph, edges []lightnet.EdgeID, t float64, seed int64, samples int) (int, []string) {
	h := newAdjacency(g, edges)
	all := g.Edges()
	if samples > len(all) {
		samples = len(all)
	}
	var bad []string
	for i := 0; i < samples; i++ {
		id := mix(seed, 0x5a, uint64(i)) % uint64(len(all))
		e := all[id]
		limit := t * e.W * (1 + 1e-9)
		if d := h.dist(int32(e.U), int32(e.V), limit); d > limit {
			bad = append(bad, fmt.Sprintf("edge %d (%d,%d,w=%g): spanner distance %g > %g", id, e.U, e.V, e.W, d, limit))
		}
	}
	return samples, bad
}

// checkSLT holds the SLT to the bounds the library's own tests use:
// lightness ≤ 1+5/ε and root stretch ≤ 1+60ε.
func checkSLT(g *lightnet.Graph, res *lightnet.SLTResult, eps float64) error {
	light, stretch, err := lightnet.VerifySLT(g, res)
	if err != nil {
		return fmt.Errorf("slt: %w", err)
	}
	if light > 1+5/eps {
		return fmt.Errorf("slt: lightness %g > %g", light, 1+5/eps)
	}
	if stretch > 1+60*eps {
		return fmt.Errorf("slt: root stretch %g > %g", stretch, 1+60*eps)
	}
	return nil
}

// wireAnswer is the service's JSON answer.
type wireAnswer struct {
	U         int      `json:"u"`
	V         int      `json:"v"`
	Reachable bool     `json:"reachable"`
	Dist      *float64 `json:"dist"`
	Path      []int32  `json:"path"`
	Exact     *float64 `json:"exact"`
	Stretch   *float64 `json:"stretch"`
}

// sameDist compares a served distance with the reference; the two may
// sum equal-length paths in different orders.
func sameDist(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// reference holds the benchmark's own distances from one source: ref
// on the served subgraph h, and base on the whole graph (nil when no
// stretch query from that source was served).
type reference struct {
	h          *adjacency
	ref, base  []float64
	maxStretch float64 // the spanner's stretch guarantee
}

// checkAnswer compares one response body with the reference distances
// from q.U.
func checkAnswer(r reference, q Query, body []byte) error {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: bad body: %v", q.URL(), err)
	}
	if a.U != int(q.U) || a.V != int(q.V) {
		return fmt.Errorf("%s: answer is for (%d,%d)", q.URL(), a.U, a.V)
	}
	want := r.ref[q.V]
	if math.IsInf(want, 1) {
		if a.Reachable {
			return fmt.Errorf("%s: reachable, reference says not", q.URL())
		}
		return nil
	}
	if !a.Reachable || a.Dist == nil || !sameDist(*a.Dist, want) {
		return fmt.Errorf("%s: served %v, reference %g", q.URL(), a.Dist, want)
	}
	switch q.Kind {
	case kindPath:
		return checkPath(r.h, q, a.Path, want)
	case kindStretch:
		return checkStretch(r, q, a)
	}
	return nil
}

// checkPath requires a served-edge path from q.U to q.V of length want.
func checkPath(h *adjacency, q Query, path []int32, want float64) error {
	if len(path) == 0 || path[0] != q.U || path[len(path)-1] != q.V {
		return fmt.Errorf("%s: path %v does not join the endpoints", q.URL(), path)
	}
	var sum float64
	for i := 1; i < len(path); i++ {
		w, ok := h.edge(path[i-1], path[i])
		if !ok {
			return fmt.Errorf("%s: path step %d-%d is not a served edge", q.URL(), path[i-1], path[i])
		}
		sum += w
	}
	if !sameDist(sum, want) {
		return fmt.Errorf("%s: path length %g, reference %g", q.URL(), sum, want)
	}
	return nil
}

// checkStretch requires the exact whole-graph distance, the realised
// stretch dist/exact (1 when u = v), and a stretch within the
// spanner's guarantee.
func checkStretch(r reference, q Query, a wireAnswer) error {
	exact := r.base[q.V]
	if a.Exact == nil || !sameDist(*a.Exact, exact) {
		return fmt.Errorf("%s: served exact %v, reference %g", q.URL(), a.Exact, exact)
	}
	want := 1.0
	if exact != 0 {
		want = *a.Dist / exact
	}
	if a.Stretch == nil || !sameDist(*a.Stretch, want) {
		return fmt.Errorf("%s: served stretch %v, reference %g", q.URL(), a.Stretch, want)
	}
	if *a.Stretch > r.maxStretch*(1+1e-9) {
		return fmt.Errorf("%s: stretch %g exceeds the guarantee %g", q.URL(), *a.Stretch, r.maxStretch)
	}
	return nil
}

// edge returns the lightest u–v edge weight.
func (a *adjacency) edge(u, v int32) (float64, bool) {
	best, ok := math.Inf(1), false
	for i := a.off[u]; i < a.off[u+1]; i++ {
		if a.to[i] == v && a.w[i] < best {
			best, ok = a.w[i], true
		}
	}
	return best, ok
}
