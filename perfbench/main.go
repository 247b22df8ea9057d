// Command perfbench is the repository's end-to-end benchmark: one
// workload per process, taken through scenario generation, the measured
// spanner and SLT builds, the snapshot/artifact store and a cold-started
// query server under a seeded load. It checks every output and prints
// each metric by name and unit; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
//
//	go run . --workload serve-hot --seed 1 --seconds 25 --trace 0
//
// --trace 1 records spans at every layer boundary, writes them as JSONL
// and prints the per-layer metrics instead of the end-to-end ones.
// --workload all runs every workload, each in its own process.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name, or all")
		seed    = fs.Int64("seed", 1, "seed of the generated graph, builds and query stream")
		seconds = fs.Float64("seconds", 25, "measuring budget of the run in seconds")
		trace   = fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		tiny    = fs.Bool("tiny", false, "run at the smoke-test sizes")
		out     = fs.String("out", "", "scratch directory (default $CARGO_TARGET_DIR or .bench_build)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir := *out
	if dir == "" {
		if dir = os.Getenv("CARGO_TARGET_DIR"); dir == "" {
			dir = ".bench_build"
		}
	}
	if *name == "all" {
		return runAll(args, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown --workload %q (want all or one of %s)", *name, workloadNames())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	c := config{w: w, n: w.n, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: work, openMin: 1000}
	if *tiny {
		c.n, c.openMin = w.tinyN, 100
	}
	r, err := run(c)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return emit(stdout, c, r, dir)
}

func workloadNames() string {
	var s string
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// emit prints the run's digests, failures and metrics, then the result
// line. A traced run also writes its spans and adds the self times.
func emit(stdout io.Writer, c config, r *report, dir string) error {
	want := endToEnd
	if c.trace {
		want = perLayer()
		spans := r.tracer.Spans()
		self := SelfTimes(spans)
		for _, l := range selfLayers {
			r.set(l+".self_ms", ms(self[l]), "ms")
		}
		r.set("trace.spans", float64(len(spans)), "count")
		path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", c.w.name, c.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := r.tracer.WriteJSONL(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace %s spans=%d\n", path, len(spans))
	}
	fmt.Fprintf(stdout, "workload %s n=%d seed=%d seconds=%g\n", c.w.name, c.n, c.seed, c.seconds)
	for _, d := range r.digests {
		fmt.Fprintf(stdout, "digest %s\n", d)
	}
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]Metric)}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = v
		fmt.Fprintf(stdout, "metric %-40s %16s %s\n", m.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runAll runs every workload in a child process of this binary with the
// same flags, echoes their output, and ends with one combined result
// whose metric names are prefixed by the workload.
func runAll(args []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: make(map[string]Metric)}
	for _, w := range workloads {
		childArgs := append(append([]string(nil), args...), "--workload", w.name)
		var buf bytes.Buffer
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout = io.MultiWriter(&buf, stdout)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(stdout, "# %s finished in %.1fs\n", w.name, time.Since(t0).Seconds())
		var last string
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("%s: result line: %w", w.name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
