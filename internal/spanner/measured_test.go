package spanner

import (
	"strings"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/graph"
	"lightnet/internal/metrics"
)

// spannerTestGraphs are the graphs of the measured-vs-accounted suite:
// wide weight ranges populate many buckets, the geometric and grid
// families exercise deep MSTs, and the ER families the dense regime.
func spannerTestGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"er", graph.ErdosRenyi(150, 0.08, 30, 11)},
		{"geometric", graph.RandomGeometric(120, 2, 13)},
		{"wide-weights", wideWeightGraph(110, 5)},
		{"grid", graph.Grid(9, 9, 40, 4)},
	}
}

// requireSameSpanner asserts field-by-field bit-identity of two Results
// (stage stats excepted — only the measured side has them).
func requireSameSpanner(t *testing.T, want, got *Result) {
	t.Helper()
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count %d vs %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d: %d vs %d", i, got.Edges[i], want.Edges[i])
		}
	}
	if got.Weight != want.Weight || got.MSTWeight != want.MSTWeight || got.Lightness != want.Lightness {
		t.Fatalf("weight/lightness differ: (%v,%v,%v) vs (%v,%v,%v) (must be bit-identical)",
			got.Weight, got.MSTWeight, got.Lightness, want.Weight, want.MSTWeight, want.Lightness)
	}
	if got.LowBucketEdges != want.LowBucketEdges || got.BaswanaEdges != want.BaswanaEdges {
		t.Fatalf("low bucket %d/%d vs %d/%d",
			got.LowBucketEdges, got.BaswanaEdges, want.LowBucketEdges, want.BaswanaEdges)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("bucket count %d vs %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: %+v vs %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
}

// TestSpannerMeasuredMatchesAccounted is the pipeline's headline
// guarantee: the spanner built by genuine message passing is
// bit-identical to the accounted ClusterBaswana builder's — every edge
// id, every certification scalar, every per-bucket diagnostic.
func TestSpannerMeasuredMatchesAccounted(t *testing.T) {
	for _, tg := range spannerTestGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 3} {
				for _, eps := range []float64{0.25, 0.5} {
					for _, seed := range []int64{1, 7} {
						acc, err := BuildLight(tg.g, k, eps, Options{Seed: seed, Cluster: ClusterBaswana})
						if err != nil {
							t.Fatal(err)
						}
						mea, err := BuildLight(tg.g, k, eps, Options{Seed: seed, Mode: Measured})
						if err != nil {
							t.Fatal(err)
						}
						requireSameSpanner(t, acc, mea)
						if len(mea.Stages) == 0 {
							t.Fatal("measured result carries no stage stats")
						}
						if acc.Stages != nil {
							t.Fatal("accounted result carries stage stats")
						}
					}
				}
			}
		})
	}
}

// TestSpannerMeasuredQuality: the measured spanner certifies the same
// stretch bound the accounted guarantees test asserts.
func TestSpannerMeasuredQuality(t *testing.T) {
	g := wideWeightGraph(100, 5)
	k, eps := 2, 0.25
	res, err := BuildLight(g, k, eps, Options{Seed: 11, Mode: Measured})
	if err != nil {
		t.Fatal(err)
	}
	maxS, _, err := metrics.EdgeStretch(g, g.Subgraph(res.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if bound := float64(2*k-1)*(1+4*eps) + 1e-9; maxS > bound {
		t.Fatalf("measured stretch %v > %v", maxS, bound)
	}
	if res.Lightness < 1 {
		t.Fatalf("lightness %v < 1", res.Lightness)
	}
}

// TestSpannerMeasuredNoFormulaCharges: the measured path makes no ledger
// formula charges — every label it records is a per-stage engine
// measurement.
func TestSpannerMeasuredNoFormulaCharges(t *testing.T) {
	g := graph.ErdosRenyi(100, 0.08, 10, 1)
	l := congest.NewLedger()
	res, err := BuildLight(g, 2, 0.25, Options{Seed: 1, Ledger: l, Mode: Measured})
	if err != nil {
		t.Fatal(err)
	}
	labels := l.Labels()
	if len(labels) == 0 {
		t.Fatal("measured run recorded nothing")
	}
	for _, label := range labels {
		if !strings.HasPrefix(label, "engine/") {
			t.Fatalf("formula charge %q on the measured path", label)
		}
	}
	if len(labels) != len(res.Stages) {
		t.Fatalf("%d ledger labels vs %d stages", len(labels), len(res.Stages))
	}
	var stageRounds int64
	for _, s := range res.Stages {
		stageRounds += int64(s.Stats.Rounds)
	}
	if l.Rounds() != stageRounds {
		t.Fatalf("ledger rounds %d != stage sum %d", l.Rounds(), stageRounds)
	}
}

// TestSpannerMeasuredWithinEnvelope: measured rounds stay within a
// constant factor of the accounted ClusterBaswana ledger prediction —
// the sanity bound tying the engine execution back to the paper's
// accounting, mirroring the slt envelope test.
func TestSpannerMeasuredWithinEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er-196", graph.ErdosRenyi(196, 0.08, 60, 2)},
		{"geometric-144", graph.RandomGeometric(144, 2, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.g.HopDiameterApprox()
			acc := congest.NewLedger()
			if _, err := BuildLight(tc.g, 2, 0.25, Options{Seed: 2, Ledger: acc, HopDiam: d, Cluster: ClusterBaswana}); err != nil {
				t.Fatal(err)
			}
			mea := congest.NewLedger()
			if _, err := BuildLight(tc.g, 2, 0.25, Options{Seed: 2, Ledger: mea, Mode: Measured}); err != nil {
				t.Fatal(err)
			}
			if mea.Rounds() == 0 || mea.Messages() == 0 {
				t.Fatal("no measured cost recorded")
			}
			if mea.Rounds() > 25*acc.Rounds() {
				t.Fatalf("measured rounds %d outside the envelope of accounted %d", mea.Rounds(), acc.Rounds())
			}
		})
	}
}

// TestSpannerWeightFoldIsDepthBound: L reaches the root in one word per
// tree edge — stage mst-weight-up costs the BFS tree's depth plus O(1)
// rounds and at most two messages per tree edge, however many MST
// edges there are.
func TestSpannerWeightFoldIsDepthBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"geometric-2500", graph.RandomGeometric(2500, 2, 3)},
		{"knn-2000", graph.KNearestNeighborGraph(graph.RandomPoints(2000, 2, 1, 5), 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := BuildLight(tc.g, 2, 0.25, Options{Seed: 1, Mode: Measured})
			if err != nil {
				t.Fatal(err)
			}
			n, ecc := tc.g.N(), tc.g.HopEccentricity(0)
			for _, s := range res.Stages {
				if s.Name != "mst-weight-up" {
					continue
				}
				if s.Stats.Rounds > ecc+3 {
					t.Fatalf("mst-weight-up took %d rounds, root eccentricity %d", s.Stats.Rounds, ecc)
				}
				if s.Stats.Messages > int64(2*(n-1)) {
					t.Fatalf("mst-weight-up sent %d messages, want <= %d", s.Stats.Messages, 2*(n-1))
				}
				return
			}
			t.Fatal("no mst-weight-up stage recorded")
		})
	}
}

// TestSpannerMeasuredRejects: the centralized per-bucket baseline cannot
// run on the measured path, and disconnected graphs fail as in the
// accounted mode.
func TestSpannerMeasuredRejects(t *testing.T) {
	g := graph.Path(8, 1)
	if _, err := BuildLight(g, 2, 0.5, Options{Mode: Measured, Cluster: ClusterGreedy}); err == nil {
		t.Fatal("ClusterGreedy accepted in measured mode")
	}
	disc := graph.New(4)
	disc.MustAddEdge(0, 1, 1)
	disc.MustAddEdge(2, 3, 1)
	if _, err := BuildLight(disc, 2, 0.5, Options{Mode: Measured}); err == nil {
		t.Fatal("disconnected graph accepted in measured mode")
	}
}

// TestClusterBaswanaAccountedGuarantees: the distributable per-bucket
// choice still certifies the headline stretch bound and sparsifies, on
// the same families the EN17 guarantees test covers.
func TestClusterBaswanaAccountedGuarantees(t *testing.T) {
	for _, tg := range spannerTestGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			for _, k := range []int{2, 3} {
				eps := 0.25
				res, err := BuildLight(tg.g, k, eps, Options{Seed: 11, Cluster: ClusterBaswana})
				if err != nil {
					t.Fatal(err)
				}
				maxS, _, err := metrics.EdgeStretch(tg.g, tg.g.Subgraph(res.Edges))
				if err != nil {
					t.Fatal(err)
				}
				if bound := float64(2*k-1)*(1+4*eps) + 1e-9; maxS > bound {
					t.Fatalf("k=%d stretch %v > %v", k, maxS, bound)
				}
			}
		})
	}
}

// BenchmarkSpannerMeasured tracks the full measured pipeline's cost —
// the engine's steady-state rounds stay 0-alloc; the per-bucket program
// state and stage setup dominate the allocation profile reported here.
func BenchmarkSpannerMeasured(b *testing.B) {
	g := graph.ErdosRenyi(512, 0.05, 30, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildLight(g, 2, 0.25, Options{Seed: 1, Mode: Measured, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
