package main

import (
	"math"
	"testing"

	"lightnet"
)

// from stops early, but the distances it returns at its targets equal
// those of a full sweep.
func TestFromMatchesFullSweep(t *testing.T) {
	const n = 200
	g := lightnet.NewGraph(n)
	for i := 0; i < 4*n; i++ {
		u, v := lightnet.Vertex(mix(1, 0xa, uint64(i))%n), lightnet.Vertex(mix(1, 0xb, uint64(i))%n)
		if u != v {
			if _, err := g.AddEdge(u, v, 1+float64(mix(1, 0xc, uint64(i))%100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids := make([]lightnet.EdgeID, g.M())
	for i := range ids {
		ids[i] = lightnet.EdgeID(i)
	}
	a := newAdjacency(g, ids)
	for src := int32(0); src < n; src += 17 {
		everyone := make([]int32, n)
		for v := range everyone {
			everyone[v] = int32(v)
		}
		full := a.from(src, everyone)
		targets := []int32{int32(mix(2, 0xd, uint64(src)) % n), int32(mix(2, 0xe, uint64(src)) % n), src}
		got := a.from(src, targets)
		for _, v := range targets {
			if got[v] != full[v] {
				t.Fatalf("from %d: distance to %d is %g, full sweep %g", src, v, got[v], full[v])
			}
			if d := a.dist(src, v, math.Inf(1)); !sameDist(d, full[v]) && !(math.IsInf(d, 1) && math.IsInf(full[v], 1)) {
				t.Fatalf("from %d: bounded search gives %g to %d, full sweep %g", src, d, v, full[v])
			}
		}
	}
}
