// Command lightnet builds any of the paper's objects on a generated
// graph and prints certified quality plus distributed cost.
//
// Usage:
//
//	lightnet -obj spanner   -graph er -n 512 -k 2 -eps 0.25
//	lightnet -obj spanner   -graph er -n 512 -k 2 -mode measured
//	lightnet -obj slt       -graph geometric -n 512 -eps 0.5 -root 0
//	lightnet -obj slt       -graph er -n 512 -eps 0.5 -mode measured
//	lightnet -obj sltinv    -graph er -n 512 -gamma 0.25
//	lightnet -obj net       -graph grid -n 400 -scale 10 -delta 0.5
//	lightnet -obj doubling  -graph geometric -n 256 -eps 0.5
//	lightnet -obj psi       -graph hard -n 400
//	lightnet -obj mst       -graph er -n 1024
//
// The SLT and the spanner support two execution modes: -mode accounted
// (default) charges the paper's primitive round formulas to a ledger;
// -mode measured runs the full §4/§5 pipeline as genuine per-vertex
// message passing on the CONGEST engine and reports measured rounds,
// messages and a per-stage breakdown. A measured run builds the
// identical object, bit for bit, as its accounted twin (for the
// spanner: the accounted run with -cluster baswana, the distributable
// per-bucket choice the pipeline executes).
//
// The five constructions (spanner, slt, sltinv, net, doubling) are
// described by the grid's experiments.Spec: the flags fill a Spec,
// Spec.Validate applies the grid's rules (its message is the CLI's
// error), and Spec.Options maps it onto the public lightnet.Build*
// builders — the same path a grid cell and `lightnet build` take.
// -cluster defaults to "" (the paper's en17); without -scale a net uses
// the grid's default scale, the eccentricity of vertex 0 over 6. psi,
// mst and engine are CLI-only demos.
//
// Measured runs accept -faults with a deterministic fault spec — the
// engine then drops/duplicates/delays messages and crashes vertices per
// the plan, every pipeline stage is validated and retried, and crash
// faults degrade the build to the surviving component:
//
//	lightnet -obj slt -graph er -n 512 -mode measured -faults drop=0.002,delay=0.01
//	lightnet -obj spanner -graph er -n 512 -mode measured -faults crash=17@0
//
// -graph accepts any scenario spec from the registry — a name plus
// optional parameters, e.g. "ba:m=4,maxw=10" or "knn:k=6,dim=3". The
// scenarios subcommand lists the catalog (full details in
// docs/SCENARIOS.md):
//
//	lightnet scenarios
//	lightnet -obj spanner -graph ba:m=4 -n 4096
//	lightnet -obj mst -graph edgelist:path=road.txt
//
// The bench subcommand runs the reproducible experiment pipeline: a
// JSON grid file (seed, repeats, sizes, workloads, per-construction
// knobs) is swept and a timestamped run folder of per-experiment CSVs
// plus logs is written. Re-running the same grid reproduces identical
// CSV content modulo the wall-time column.
//
// Each completed cell is checkpointed in the run folder's manifest, so
// a killed run resumes in seconds without recomputing finished cells:
//
//	lightnet bench -grid examples/grids/quick.json
//	lightnet bench -grid grid.json -out results/nightly
//	lightnet bench -grid grid.json -out results/nightly -resume
//	lightnet bench                      (built-in headline grid)
//
// The serve subcommand is the build-once, query-many service: it builds
// the spanner (or SLT) once at startup and answers /distance, /path and
// /stretch queries over HTTP, with request batching and an LRU response
// cache on the hot path; loadgen replays a seeded deterministic query
// stream against it and reports QPS, p50/p99 latency and the ordered
// response digest (written as BENCH_serve.json with -out, gated in CI by
// cmd/benchdiff -kind serve):
//
//	lightnet serve -graph er -n 512 -k 2 -eps 0.25 -addr 127.0.0.1:8080
//	lightnet loadgen -addr http://127.0.0.1:8080 -clients 8 -queries 5000 -out BENCH_serve.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lightnet"
	"lightnet/internal/benchfmt"
	"lightnet/internal/congest"
	"lightnet/internal/experiments"
	"lightnet/internal/profiling"
	"lightnet/internal/serve"
	"lightnet/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := runBench(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "build" {
		if err := runBuild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet build:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		if err := runLoadgen(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lightnet loadgen:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scenarios" {
		printScenarios()
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lightnet:", err)
		os.Exit(1)
	}
}

// runBench executes the experiment pipeline described by a grid file.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	gridPath := fs.String("grid", "", "JSON experiment-grid file (default: built-in headline grid)")
	out := fs.String("out", "", "output folder (default: bench-<timestamp>)")
	resume := fs.Bool("resume", false, "resume a killed run: skip the cells -out's manifest marks done")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep; relative paths land in the run folder")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the sweep; relative paths land in the run folder")
	tracePath := fs.String("trace", "", "write a runtime execution trace of the sweep; relative paths land in the run folder")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *resume && *out == "" {
		return errors.New("-resume needs -out: the folder of the run to pick up")
	}
	grid := experiments.DefaultGrid()
	if *gridPath != "" {
		var err error
		if grid, err = experiments.LoadGrid(*gridPath); err != nil {
			return err
		}
	}
	dir := *out
	if dir == "" {
		dir = "bench-" + time.Now().Format("20060102-150405")
	}
	// Profiles live next to the CSVs they explain: a relative profile
	// path is resolved inside the run folder, so the sweep's artifacts
	// travel as one directory.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	inRun := func(p string) string {
		if p == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(dir, p)
	}
	stopProf, err := profiling.Start(inRun(*cpuprofile), inRun(*memprofile), inRun(*tracePath))
	if err != nil {
		return err
	}
	err = experiments.RunGridResume(grid, dir, os.Stdout, *resume)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Printf("run folder: %s (csv/ per experiment, logs/run.log, grid.json)\n", dir)
	return nil
}

// runServe is the build-once, query-many service: it builds (or loads)
// a graph, builds the spanner or SLT once, and serves distance/path/
// stretch queries over HTTP until SIGINT/SIGTERM, then drains in-flight
// batches and exits.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile = fs.String("addrfile", "", "write the bound address to this file once listening (for scripts using -addr :0)")
		obj      = fs.String("obj", "spanner", "served object: spanner | slt")
		kind     = fs.String("graph", "er", "scenario spec (see `lightnet scenarios`)")
		n        = fs.Int("n", 512, "number of vertices")
		k        = fs.Int("k", 2, "spanner stretch parameter")
		eps      = fs.Float64("eps", 0.25, "ε")
		root     = fs.Int("root", 0, "SLT root")
		seed     = fs.Int64("seed", 1, "build seed")
		load     = fs.String("load", "", "load the graph from this file instead of generating")
		snapPath = fs.String("snapshot", "", "cold-start: load the base graph from this *.csrz snapshot (see `lightnet build`)")
		artPath  = fs.String("artifact", "", "cold-start: load the served object from this *.art artifact (requires -snapshot)")
		cacheSz  = fs.Int("cache", 0, "LRU response-cache capacity (0 = default 65536, negative = disabled)")
		window   = fs.Duration("batch-window", 0, "batcher coalescing window (0 = default 200µs)")
		maxBatch = fs.Int("batch-max", 0, "flush a batch at this many pending queries (0 = default 256)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *artPath != "" && *snapPath == "" {
		return errors.New("-artifact requires -snapshot: an artifact only makes sense against its parent snapshot")
	}
	if *snapPath != "" && *load != "" {
		return errors.New("-snapshot and -load are mutually exclusive")
	}

	var g *lightnet.Graph
	var err error
	var snap *store.Snapshot
	workload := *kind
	switch {
	case *snapPath != "":
		// Cold start: the graph comes from a store snapshot, not a
		// generator — millisecond boot instead of regeneration.
		if snap, err = store.OpenGraph(*snapPath); err != nil {
			return err
		}
		g = snap.Graph
		workload = snap.Meta.Workload
	case *load != "":
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		g, err = lightnet.ReadGraph(f)
		f.Close()
		workload = "load:" + *load
	default:
		g, err = makeGraph(*kind, *n, *seed)
	}
	if err != nil {
		return err
	}

	var nw *serve.Network
	if *artPath != "" {
		// Full cold start: served object from the artifact too — no
		// spanner/SLT rebuild. The artifact's GraphDigest must pin
		// exactly this snapshot.
		art, aerr := store.OpenArtifact(*artPath)
		if aerr != nil {
			return aerr
		}
		nw, err = serve.NetworkFromArtifact(snap, art)
	} else {
		switch *obj {
		case "spanner":
			nw, err = serve.BuildSpannerNetwork(g, workload, *k, *eps, *seed)
		case "slt":
			nw, err = serve.BuildSLTNetwork(g, workload, lightnet.Vertex(*root), *eps, *seed)
		default:
			return fmt.Errorf("unknown -obj %q (spanner|slt)", *obj)
		}
		if err == nil && snap != nil {
			nw.SnapshotDigest = snap.Digest
		}
	}
	if err != nil {
		return err
	}

	srv := serve.NewServer(nw, serve.Options{
		CacheSize: *cacheSz,
		Batch:     serve.BatcherOptions{Window: *window, MaxBatch: *maxBatch},
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644); err != nil {
			l.Close()
			return err
		}
	}
	fmt.Printf("serving %s on %s: n=%d m=%d edges=%d lightness=%.2f digest=%s\n",
		nw.Object, l.Addr(), g.N(), g.M(), nw.Edges, nw.Lightness, nw.Digest)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutCtx)
	}()
	if err := srv.Serve(l); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("drained: queries=%d cache hit/miss=%d/%d batches=%d sweeps=%d\n",
		st.Queries, st.CacheHits, st.CacheMisses, st.Batches, st.Sweeps)
	return nil
}

// runLoadgen replays the seeded deterministic query stream against a
// running lightnet serve instance and reports throughput, latency
// percentiles and the ordered response digest; -out writes the
// BENCH_serve.json report the CI gate compares.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "base URL of the server")
		clients = fs.Int("clients", 8, "concurrent closed-loop workers")
		queries = fs.Int("queries", 5000, "total queries to issue")
		seed    = fs.Int64("seed", 1, "query-stream seed")
		out     = fs.String("out", "", "write a BENCH_serve.json report here")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	res, err := serve.RunLoadgen(serve.LoadgenOptions{
		BaseURL: *addr, Clients: *clients, Queries: *queries, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %s %s n=%d edges=%d\n",
		res.Info.Object, res.Info.Workload, res.Info.N, res.Info.Edges)
	fmt.Printf("queries=%d errors=%d clients=%d elapsed=%s\n",
		res.Queries, res.Errors, *clients, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("qps=%.0f p50=%s p99=%s digest=%s\n",
		res.QPS, res.P50, res.P99, res.ResponseDigest)
	if res.Errors > 0 {
		return fmt.Errorf("%d queries failed", res.Errors)
	}
	if *out != "" {
		rep := benchfmt.ServeReport{
			Workload: res.Info.Workload, Object: res.Info.Object,
			N: res.Info.N, M: res.Info.M, K: res.Info.K,
			Eps: res.Info.Eps, Seed: res.Info.Seed,
			Edges: res.Info.Edges, Digest: res.Info.Digest,
			SnapshotDigest: res.Info.SnapshotDigest,
			ArtifactDigest: res.Info.ArtifactDigest,
			Clients:        *clients, Queries: res.Queries, Errors: res.Errors,
			ResponseDigest: res.ResponseDigest,
			QPS:            res.QPS,
			P50Micros:      float64(res.P50.Nanoseconds()) / 1e3,
			P99Micros:      float64(res.P99.Nanoseconds()) / 1e3,
		}
		if err := benchfmt.WriteFile(*out, rep); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", *out)
	}
	return nil
}

// run builds one object on a generated (or loaded) graph and prints its
// certified quality and distributed cost. The five paper constructions
// are described by an experiments.Spec, validated and mapped onto the
// public builders exactly as a grid cell is; psi, mst and engine are
// CLI-only demos.
func run(args []string) error {
	fs := flag.NewFlagSet("lightnet", flag.ContinueOnError)
	var (
		obj   = fs.String("obj", "spanner", "spanner|slt|sltinv|net|doubling|psi|mst|engine")
		kind  = fs.String("graph", "er", "scenario spec, e.g. er, geometric:dim=3, ba:m=4 (see `lightnet scenarios`)")
		n     = fs.Int("n", 512, "number of vertices")
		k     = fs.Int("k", 2, "spanner stretch parameter")
		eps   = fs.Float64("eps", 0.25, "ε")
		gamma = fs.Float64("gamma", 0.25, "γ for the inverse SLT")
		scale = fs.Float64("scale", 0, "net scale Δ (default: eccentricity of vertex 0 / 6)")
		delta = fs.Float64("delta", 0.5, "net approximation δ")
		root  = fs.Int("root", 0, "SLT root")
		seed  = fs.Int64("seed", 1, "random seed")
		nover = fs.Bool("noverify", false, "skip exact verification (large graphs)")
		load  = fs.String("load", "", "load the graph from this file instead of generating")
		save  = fs.String("save", "", "save the generated graph to this file")
		sf    = addSpecFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var spec experiments.Spec
	switch *obj {
	case "psi", "mst", "engine":
		if err := sf.unused(*obj); err != nil {
			return err
		}
	default:
		var err error
		spec, err = sf.spec(experiments.Spec{
			Construction: *obj, K: *k, Eps: *eps, Gamma: *gamma, Delta: *delta, Scale: *scale,
		})
		if err != nil {
			return err
		}
	}

	var g *lightnet.Graph
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			return ferr
		}
		g, err = lightnet.ReadGraph(f)
		f.Close()
	} else {
		g, err = makeGraph(*kind, *n, *seed)
	}
	if err != nil {
		return err
	}
	if *save != "" {
		f, ferr := os.Create(*save)
		if ferr != nil {
			return ferr
		}
		if err := lightnet.WriteGraph(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("graph %s: n=%d m=%d\n", *kind, g.N(), g.M())

	opts := spec.Options(*seed, *sf.workers)
	switch *obj {
	case "spanner":
		res, err := lightnet.BuildLightSpanner(g, spec.K, spec.Eps, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("spanner: edges=%d lightness=%.2f rounds=%d messages=%d mode=%s\n",
			len(res.Edges), res.Lightness, res.Cost.Rounds, res.Cost.Messages, *sf.mode)
		if res.Cost.Measured {
			printBreakdown(res.Cost)
		}
		printFaults(res.Faults)
		if !*nover && !degraded(res.Faults, g.N()) {
			maxS, meanS, err := lightnet.VerifySpanner(g, res)
			if err != nil {
				return err
			}
			fmt.Printf("verified: stretch max=%.3f mean=%.3f (bound %.3f)\n",
				maxS, meanS, float64(2*spec.K-1)*(1+spec.Eps))
		}
	case "slt":
		res, err := lightnet.BuildSLT(g, lightnet.Vertex(*root), spec.Eps, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("slt: lightness=%.3f rounds=%d messages=%d mode=%s\n",
			res.Lightness, res.Cost.Rounds, res.Cost.Messages, *sf.mode)
		printBreakdown(res.Cost)
		printFaults(res.Faults)
		if !*nover && !degraded(res.Faults, g.N()) {
			light, stretch, err := lightnet.VerifySLT(g, res)
			if err != nil {
				return err
			}
			fmt.Printf("verified: lightness=%.3f rootStretch=%.3f\n", light, stretch)
		}
	case "sltinv":
		res, err := lightnet.BuildSLTInverse(g, lightnet.Vertex(*root), spec.Gamma, opts...)
		if err != nil {
			return err
		}
		light, stretch, err := lightnet.VerifySLT(g, res)
		if err != nil {
			return err
		}
		fmt.Printf("slt-inverse: lightness=%.4f (≤1+γ=%.4f) rootStretch=%.2f\n",
			light, 1+spec.Gamma, stretch)
	case "net":
		res, err := lightnet.BuildNet(g, spec.NetScale(g), spec.Delta, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("net: |N|=%d covering=%.2f separation=%.2f iterations=%d rounds=%d\n",
			len(res.Points), res.Alpha, res.Beta, res.Iterations, res.Cost.Rounds)
		if !*nover {
			if err := lightnet.VerifyNet(g, res); err != nil {
				return err
			}
			fmt.Println("verified: covering and separation hold")
		}
	case "doubling":
		res, err := lightnet.BuildDoublingSpanner(g, spec.Eps, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("doubling spanner: edges=%d lightness=%.2f rounds=%d\n",
			len(res.Edges), res.Lightness, res.Cost.Rounds)
		if !*nover {
			maxS, _, err := lightnet.VerifySpanner(g, res)
			if err != nil {
				return err
			}
			fmt.Printf("verified: stretch=%.3f\n", maxS)
		}
	case "psi":
		psi, mstW, err := lightnet.EstimateMSTWeight(g, lightnet.WithSeed(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("psi: Ψ=%.0f L=%.0f ratio=%.2f (bound O(α·log n)≈%.0f)\n",
			psi, mstW, psi/mstW, 2.25*4*math.Log2(float64(g.N())))
	case "mst":
		edges, w, err := lightnet.MST(g)
		if err != nil {
			return err
		}
		fmt.Printf("mst: edges=%d weight=%.1f\n", len(edges), w)
	case "engine":
		return runEngineDemos(g, *seed)
	}
	return nil
}

// runEngineDemos executes the genuine message-passing programs on the
// graph and prints their measured CONGEST costs.
func runEngineDemos(g *lightnet.Graph, seed int64) error {
	fmt.Printf("%-22s %8s %10s %8s\n", "program", "rounds", "messages", "phases")
	if _, _, s, err := congest.RunBFS(g, 0, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "bfs-tree", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunFloodMin(g, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "leader-election", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunBoruvka(g, 0, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "boruvka-mst", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunLubyMIS(g, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "luby-mis", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunRulingSet(g, 3, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "ruling-set(k=3)", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, s, err := congest.RunEN17Spanner(g, 2, seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "en17-spanner(k=2)", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	if _, _, s, err := congest.RunNearestSource(g, []lightnet.Vertex{0}, g.N(), seed); err == nil {
		fmt.Printf("%-22s %8d %10d %8d\n", "nearest-source-bf", s.Rounds, s.Messages, s.Phases)
	} else {
		return err
	}
	return nil
}

// printBreakdown dumps a cost's per-stage round breakdown on one line
// (see lightnet.Cost.StageString).
func printBreakdown(c lightnet.Cost) {
	label := "breakdown"
	if c.Measured {
		label = "stages"
	}
	fmt.Printf("%s: %s\n", label, c.StageString())
}

// printFaults dumps a faulted measured run's diagnostics (no-op for
// fault-free runs).
func printFaults(f *lightnet.FaultReport) {
	if f == nil {
		return
	}
	fmt.Printf("faults: dropped=%d duplicated=%d delayed=%d retries=%d survivors=%d\n",
		f.Dropped, f.Duplicated, f.Delayed, f.Retries, f.Survivors)
}

// degraded reports, and says, that a crash-degraded build spans only
// the surviving component, so full-graph verification does not apply.
func degraded(f *lightnet.FaultReport, n int) bool {
	if f == nil || f.Survivors == n {
		return false
	}
	fmt.Printf("degraded to %d/%d survivors: skipping full-graph verification\n", f.Survivors, n)
	return true
}

// makeGraph resolves -graph through the scenario registry, so the CLI
// accepts exactly the specs the grid format does.
func makeGraph(kind string, n int, seed int64) (*lightnet.Graph, error) {
	return experiments.BuildWorkload(kind, n, seed)
}

// printScenarios lists the scenario catalog: every registered family
// with its parameters and defaults.
func printScenarios() {
	fmt.Println("scenario specs: name or name:key=val,key=val (docs/SCENARIOS.md)")
	fmt.Println()
	for _, s := range experiments.Scenarios() {
		fmt.Printf("%-10s %s\n", s.Name, s.Summary)
		for _, p := range s.Params {
			if p.Default == "" {
				fmt.Printf("    %-8s %s\n", p.Name, p.Doc)
			} else {
				fmt.Printf("    %-8s %s (default %s)\n", p.Name, p.Doc, p.Default)
			}
		}
	}
}
