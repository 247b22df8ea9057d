package main

import (
	"math"
	"sort"
	"time"
)

// Metric is one named, united result value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics a user of the system sees, printed by an
// untraced run (--trace 0), with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"spanner_build_s", "s"},
	{"spanner_rounds", "count"},
	{"spanner_messages", "count"},
	{"spanner_lightness", "ratio"},
	{"slt_build_s", "s"},
	{"slt_rounds", "count"},
	{"slt_messages", "count"},
	{"slt_lightness", "ratio"},
	{"coldstart_ms", "ms"},
	{"serve_p50_ms", "ms"},
	{"serve_qps", "1/s"},
}

// Pipeline stages reported one by one. Spanner stages named bucket-*
// are summed under "buckets".
var (
	spannerStages = []string{"mst", "bfs", "mst-weight-up", "mst-weight-down", "buckets"}
	sltStages     = []string{"mst", "tree", "spt", "spt-dist", "euler-up", "euler-down", "bfs",
		"bp-walk", "bp-heads", "bp-select", "h-mark", "final-spt", "final-dist"}
	// selfLayers are the layers whose self time the traced run reports.
	selfLayers = []string{"experiments", "congest", "spanner", "slt", "store", "serve", "loadgen", "check"}
)

// perLayer lists the single-layer metrics a traced run (--trace 1)
// prints, with their units.
func perLayer() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		{"experiments.generate_s", "s"},
		{"congest.mst_s", "s"},
		{"congest.mst_rounds", "count"},
		{"congest.mst_messages", "count"},
	}
	for _, obj := range []string{"spanner", "slt"} {
		out = append(out,
			m{obj + ".ns_per_round", "ns"},
			m{obj + ".messages_per_round", "count"},
			m{obj + ".alloc_mb", "MB"},
			m{obj + ".mallocs", "count"})
		stages := spannerStages
		if obj == "slt" {
			stages = sltStages
		}
		for _, st := range stages {
			out = append(out,
				m{obj + ".stage." + st + ".rounds", "count"},
				m{obj + ".stage." + st + ".messages", "count"})
		}
	}
	out = append(out,
		m{"spanner.funnel_share", "ratio"},
		m{"slt.depth_share", "ratio"},
		m{"store.write_graph_ms", "ms"},
		m{"store.write_artifact_ms", "ms"},
		m{"store.snapshot_bytes", "bytes"},
		m{"store.artifact_bytes", "bytes"},
		m{"store.open_graph_ms", "ms"},
		m{"store.open_artifact_ms", "ms"},
		m{"serve.network_ms", "ms"},
		m{"serve.listen_ms", "ms"},
		m{"serve.p99_ms", "ms"},
		m{"serve.sweep_ms.p50", "ms"},
		m{"serve.sweep_ms.p99", "ms"},
		m{"serve.http_rtt_us.p50", "us"},
		m{"serve.cache_hit_ratio", "ratio"},
		m{"serve.batch_mean", "count"},
		m{"serve.sweeps_per_query", "ratio"},
		m{"loadgen.late_ms.p99", "ms"},
		m{"loadgen.utilisation", "ratio"},
		m{"loadgen.repeat_share", "ratio"},
		m{"loadgen.source_share", "ratio"},
	)
	for _, l := range selfLayers {
		out = append(out, m{l + ".self_ms", "ms"})
	}
	return append(out,
		m{"trace.spans", "count"},
		m{"trace.overhead_ratio", "ratio"})
}

// median of a sample (0 when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank quantile q of a sample (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ms and secs convert durations for reporting.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
