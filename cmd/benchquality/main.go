// Command benchquality emits BENCH_quality.json: for every scenario in
// the registry it builds the §5 light spanner in both execution modes
// (accounted with the distributable baswana bucket clustering, and
// measured on the CONGEST engine) and certifies each against two
// independent oracles — the paper's 2k−1 stretch bound, verified by
// exact per-edge Dijkstra, and the greedy [ADD+93] baseline spanner,
// whose lightness anchors the committed ratio envelope.
//
//	go run ./cmd/benchquality -out /tmp/quality.json
//	go run ./cmd/benchdiff -kind quality -baseline BENCH_quality.json -current /tmp/quality.json
//
// Everything here is deterministic: seeds are fixed, the greedy oracle
// has no randomness, and the stretch tail uses the counter-hash pair
// sampler of metrics.PairStretchStats. Regenerate the committed baseline
// only when a change intentionally alters spanner quality:
//
//	go run ./cmd/benchquality -out BENCH_quality.json
//
// The edgelist scenario is exercised through the committed sample file
// (-edgelist), so the report covers the whole registry; run the command
// from the repository root, as CI does.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lightnet"
	"lightnet/internal/benchfmt"
	"lightnet/internal/experiments"
)

func main() {
	var (
		out      = flag.String("out", "BENCH_quality.json", "output JSON path")
		n        = flag.Int("n", 128, "vertex count per scenario (edgelist ignores it)")
		seed     = flag.Int64("seed", 1, "build and sampling seed")
		k        = flag.Int("k", 2, "spanner stretch parameter (bound 2k−1)")
		eps      = flag.Float64("eps", 0.25, "spanner ε")
		pairs    = flag.Int("pairs", 2000, "deterministic pair-sample cap for stretch_p99")
		edgelist = flag.String("edgelist", "internal/experiments/testdata/sample.edgelist",
			"edge-list file backing the edgelist scenario (relative to the repo root)")
	)
	flag.Parse()
	rep, err := buildReport(*n, *seed, *k, *eps, *pairs, *edgelist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchquality:", err)
		os.Exit(1)
	}
	if err := benchfmt.WriteFile(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchquality:", err)
		os.Exit(1)
	}
	fmt.Printf("benchquality: %d rows (%d scenarios × 2 modes) written to %s\n",
		len(rep.Rows), len(rep.Rows)/2, *out)
}

// buildReport runs every registry scenario through both spanner modes
// and the greedy oracle.
func buildReport(n int, seed int64, k int, eps float64, pairs int, edgelistPath string) (*benchfmt.QualityReport, error) {
	rep := &benchfmt.QualityReport{K: k, Eps: eps, N: n, Seed: seed, Pairs: pairs}
	for _, sc := range experiments.Scenarios() {
		spec := sc.Name
		if sc.Name == "edgelist" {
			spec = "edgelist:path=" + edgelistPath
		}
		g, err := experiments.BuildWorkload(spec, n, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec, err)
		}
		rows, err := qualityRows(spec, g, seed, k, eps, pairs)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// qualityRows builds the accounted and measured spanners on g through
// the public builder, with the options of the matching grid specs, and
// certifies both with the grid's quality oracle.
func qualityRows(spec string, g *lightnet.Graph, seed int64, k int, eps float64, pairs int) ([]benchfmt.QualityRow, error) {
	var rows []benchfmt.QualityRow
	for _, s := range []experiments.Spec{
		{Construction: "spanner", Mode: "accounted", Cluster: "baswana"},
		{Construction: "spanner", Mode: "measured"},
	} {
		res, err := lightnet.BuildLightSpanner(g, k, eps, s.Options(seed, 0)...)
		if err != nil {
			return nil, fmt.Errorf("%s build: %w", s.Mode, err)
		}
		maxS, _, err := lightnet.VerifySpanner(g, res)
		if err != nil {
			return nil, fmt.Errorf("%s stretch: %w", s.Mode, err)
		}
		q, err := experiments.QualityOracle(g, res.Edges, res.MSTWeight, k, pairs, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Mode, err)
		}
		row := benchfmt.QualityRow{
			Scenario: displaySpec(spec), Mode: s.Mode, N: g.N(), M: g.M(), Bound: float64(2*k - 1),
			Edges: len(res.Edges), Lightness: res.Lightness,
			Stretch: maxS, StretchP99: q.StretchP99,
			GreedyEdges: len(q.GreedyEdges), GreedyLightness: q.GreedyLightness, GreedyStretch: q.GreedyStretch,
		}
		if q.GreedyLightness > 0 {
			row.RatioVsGreedy = res.Lightness / q.GreedyLightness
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// displaySpec strips the machine-local edgelist path so the committed
// baseline's row key is stable across checkouts.
func displaySpec(spec string) string {
	if strings.HasPrefix(spec, "edgelist:") {
		return "edgelist"
	}
	return spec
}
