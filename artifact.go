package lightnet

import (
	"lightnet/internal/graph"
	"lightnet/internal/store"
)

// Build results convert to persistable store artifacts here, at the
// top of the dependency graph, so internal/store stays importable from
// every layer (experiments, serve, cmd) without cycles.

// SpannerArtifact packages a spanner build result as a store artifact
// pinned to the snapshot digest of the graph it was built from.
func SpannerArtifact(res *SpannerResult, g *Graph, graphDigest string, k int, eps float64, seed int64) *store.Artifact {
	a := &store.Artifact{
		Kind: "spanner", K: k, Eps: eps, Root: graph.NoVertex, Seed: seed,
		GraphDigest: graphDigest, N: g.N(), M: g.M(),
		Edges:  res.Edges,
		Weight: res.Weight, MSTWeight: res.MSTWeight, Lightness: res.Lightness,
	}
	setArtifactCost(a, res.Cost)
	return a
}

// SLTArtifact packages an SLT (or inverse-SLT) build result as a store
// artifact. kind is "slt" or "sltinv".
func SLTArtifact(res *SLTResult, g *Graph, graphDigest string, kind string, eps float64, seed int64) *store.Artifact {
	a := &store.Artifact{
		Kind: kind, Eps: eps, Root: res.Root, Seed: seed,
		GraphDigest: graphDigest, N: g.N(), M: g.M(),
		Edges:  res.TreeEdges,
		Parent: res.Parent, Dist: res.Dist,
		Weight: res.Weight, MSTWeight: res.MSTWeight, Lightness: res.Lightness,
	}
	setArtifactCost(a, res.Cost)
	return a
}

func setArtifactCost(a *store.Artifact, c Cost) {
	a.Rounds, a.Messages, a.Measured = c.Rounds, c.Messages, c.Measured
	for _, s := range c.Stages {
		a.Stages = append(a.Stages, store.Stage{Name: s.Stage, Rounds: s.Rounds, Messages: s.Messages})
	}
}
