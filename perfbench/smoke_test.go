package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metric and workload tables here are the ones BENCHMARK.json
// declares, in the same order and with the same units.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}

// A tiny run of every workload, untraced and traced: every check
// passes, every declared metric is printed with its unit, and the
// traced run writes spans for every layer.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1",
					"--trace", fmt.Sprint(trace), "--tiny", "--out", dir}
				if err := mainErr(args, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer()
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("metric %-40s ", m.name)) {
						t.Errorf("metric %s is not printed by name", m.name)
					}
				}
				for _, d := range []string{"snapshot=", "artifact=", "response="} {
					if !strings.Contains(out.String(), "digest "+d) {
						t.Errorf("no %s digest printed", d)
					}
				}
				if trace == 1 {
					checkTraceFile(t, filepath.Join(dir, "traces", w.name+"-seed3.jsonl"))
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := make(map[string]bool)
	traces := make(map[uint64]map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.End < s.Start || s.ID == 0 || s.Trace == 0 {
			t.Fatalf("bad span %+v", s)
		}
		layers[Layer(s.Name)] = true
		if traces[s.Trace] == nil {
			traces[s.Trace] = make(map[string]bool)
		}
		traces[s.Trace][s.Name] = true
	}
	for _, l := range selfLayers {
		if !layers[l] {
			t.Errorf("no %s span in the trace", l)
		}
	}
	requests := 0
	for _, names := range traces {
		if names["loadgen.request"] {
			requests++
			if !names["serve.http"] || len(names) != 2 {
				t.Fatalf("a request's trace holds %v", names)
			}
		}
	}
	if requests == 0 {
		t.Error("no request traces")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "bench.run", ID: 1, Start: 0, End: 100},
		{Name: "spanner.build", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "slt.build", ID: 3, Parent: 1, Start: 40, End: 70},
		{Name: "loadgen.request", ID: 4, Start: 0, End: 30},
		{Name: "serve.http", ID: 5, Parent: 4, Start: 5, End: 25},
	}
	got := SelfTimes(spans)
	want := map[string]int64{"bench": 40, "spanner": 40, "slt": 30, "loadgen": 10, "serve": 20}
	for l, w := range want {
		if int64(got[l]) != w {
			t.Errorf("%s self time %d, want %d", l, got[l], w)
		}
	}
}
