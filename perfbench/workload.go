package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"lightnet"
	"lightnet/internal/experiments"
	"lightnet/internal/serve"
	"lightnet/internal/store"
)

// Construction parameters shared by every workload: the §5 spanner
// with k=2, ε=0.25 and the §4 SLT rooted at 0 with ε=0.25, both in
// measured mode on workers engine workers; load comes from conns
// keep-alive connections.
const (
	spannerK = 2
	eps      = 0.25
	sltRoot  = 0
	workers  = 2
	conns    = 2
	// graphSeed fixes each workload's graph to one scenario instance,
	// the one the committed BENCH_* baselines use, and buildSeed the
	// spanner and SLT built on it. Round and message counts follow the
	// graph's MST depth, which varies by tens of percent between
	// instances, and the SLT's counts and lightness vary with the
	// construction seed; with both fixed, every count repeats exactly in
	// every run and moves only when the code does. --seed varies the
	// query stream and the checked sample.
	graphSeed = 1
	buildSeed = 1
)

// workload is one scenario taken through the whole chain: generate →
// build spanner and SLT → snapshot and artifact files → cold-started
// server → query stream. The workloads differ in graph and traffic so
// that each stresses a different layer.
type workload struct {
	name  string
	graph string // experiments scenario spec
	n     int
	tinyN int // vertex count of the smoke run
	// Traffic (see Stream): the share of hot queries, the numbers of
	// hot sources and hot targets, and the open-loop offered rate in
	// requests per second. perfbench/README.md gives the basis of each
	// value.
	hotShare   float64
	hotSources int
	hotTargets int
	rate       float64
	why        string
}

var workloads = []workload{
	{
		name: "build-knn", graph: "knn", n: 40000, tinyN: 1500,
		hotShare: 1, hotSources: 16, hotTargets: 2, rate: 1000,
		why: "knn n=4e4: the measured spanner and SLT builds take nearly all the time; every served query hits the warm cache",
	},
	{
		name: "serve-hot", graph: "er", n: 512, tinyN: 128,
		hotShare: 0.9, hotSources: 16, hotTargets: 64, rate: 1000,
		why: "er n=512 with a skewed stream: sweeps are cheap, so HTTP, cache, batcher and encode dominate serving",
	},
	{
		name: "serve-cold", graph: "knn", n: 10000, tinyN: 800,
		hotShare: 0, rate: 70,
		why: "knn n=1e4 with no repeated pair: every query misses the cache and pays a Dijkstra sweep",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	w       workload
	n       int
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for the run's files
	// openMin is the least number of open-loop requests: 1000, so the
	// p99 has ten samples beyond it; smaller in the smoke run.
	openMin int
}

// report is what a run hands back to main.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]Metric
	digests           []string // "name=value"
	tracer            *Tracer
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// fail records a failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// budget is the share of --seconds a phase may take.
func (c config) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// repeat runs body while budget lasts, at least min and at most max
// times.
func repeat(budget time.Duration, min, max int, body func() error) error {
	start := time.Now()
	for i := 0; i < max && (i < min || time.Since(start) < budget); i++ {
		if err := body(); err != nil {
			return err
		}
	}
	return nil
}

// run executes one workload. An error means the chain could not be
// completed; failed checks are counted in the report instead.
func run(c config) (*report, error) {
	r := &report{metrics: make(map[string]Metric)}
	var tr *Tracer
	if c.trace {
		tr = newTracer()
		r.tracer = tr
	}
	root := tr.Begin("bench.run", tr.NewID(), 0)
	defer root.End()

	snapPath := filepath.Join(c.dir, "graph.csrz")
	artPath := filepath.Join(c.dir, "spanner.art")

	// Set-up: generate the scenario and snapshot it once now; the
	// repeats that fit the set-up budget are spread over the serving
	// rounds and write a file of their own.
	su := &setupper{c: c, r: r}
	t0 := time.Now()
	if err := su.once(snapPath, root); err != nil {
		return nil, err
	}
	setups := max(3, min(2000, int(c.budget(0.1)/time.Since(t0))))
	g, graphDigest := su.g, su.digest
	r.set("store.snapshot_bytes", fileSize(snapPath), "bytes")
	r.digests = append(r.digests, "snapshot="+graphDigest)

	if c.trace {
		sp := root.Child("congest.mst")
		t0 := time.Now()
		_, st, err := lightnet.DistributedMST(g, buildSeed)
		sp.End()
		if err != nil {
			return nil, err
		}
		r.set("congest.mst_s", secs(time.Since(t0)), "s")
		r.set("congest.mst_rounds", float64(st.Rounds), "count")
		r.set("congest.mst_messages", float64(st.Messages), "count")
	}

	// Builds: the first spanner and SLT pair now; the repeats that fit
	// the build budget are spread over the serving rounds.
	b := &builder{g: g, r: r, opts: []lightnet.Option{lightnet.WithSeed(buildSeed), lightnet.WithMeasured(), lightnet.WithWorkers(workers)}}
	t0 = time.Now()
	if err := b.pair(root); err != nil {
		return nil, err
	}
	pairs := max(3, min(100, int(c.budget(0.35)/time.Since(t0))))
	sres, lres := b.sres, b.lres
	r.digests = append(r.digests, "spanner_edges="+edgeDigest(sres.Edges), "slt_edges="+edgeDigest(lres.TreeEdges))

	// Output checks, outside every timed region.
	sp := root.Child("check.spanner")
	checked, bad := checkSpannerSample(g, sres.Edges, float64(2*spannerK-1)*(1+eps), c.seed, 200)
	sp.End()
	r.attempted += checked
	for _, b := range bad {
		r.fail("spanner stretch: %s", b)
	}
	sp = root.Child("check.slt")
	r.attempted++
	if err := checkSLT(g, lres, eps); err != nil {
		r.fail("%v", err)
	}
	sp.End()

	sp = root.Child("store.write_artifact")
	t0 = time.Now()
	art := lightnet.SpannerArtifact(sres, g, graphDigest, spannerK, eps, buildSeed)
	artDigest, err := store.WriteArtifact(artPath, art)
	sp.End()
	if err != nil {
		return nil, err
	}
	r.set("store.write_artifact_ms", ms(time.Since(t0)), "ms")
	r.set("store.artifact_bytes", fileSize(artPath), "bytes")
	r.digests = append(r.digests, "artifact="+artDigest)

	built := builtFiles{g: g, graphDigest: graphDigest, edges: edgeDigest(sres.Edges)}
	repeatPath := filepath.Join(c.dir, "repeat.csrz")
	repeats := []spreadWork{
		{setups - 1, func() error { return su.once(repeatPath, root) }},
		{pairs - 1, func() error { return b.pair(root) }},
	}
	if err := serveAndLoad(c, r, snapPath, artPath, built, repeats, root); err != nil {
		return nil, err
	}
	su.report()
	b.report()
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return r, nil
}

// setupper generates the workload's graph and writes its snapshot, and
// keeps each set-up's times. Every repeat must give the first file.
type setupper struct {
	c                   config
	r                   *report
	g                   *lightnet.Graph
	digest              string
	setup, gens, writes []float64
}

// once sets up and writes the snapshot to path. It begins with the
// heap collected and its free memory returned to the OS, as in a new
// process.
func (s *setupper) once(path string, root *Open) error {
	debug.FreeOSMemory()
	phase := root.Child("bench.setup")
	defer phase.End()
	t0 := time.Now()
	sp := phase.Child("experiments.generate")
	g, err := experiments.BuildWorkload(s.c.w.graph, s.c.n, graphSeed)
	if err != nil {
		return fmt.Errorf("generate %s n=%d: %w", s.c.w.graph, s.c.n, err)
	}
	g.Freeze()
	sp.End()
	t1 := time.Now()
	sp = phase.Child("store.write_graph")
	digest, err := store.WriteGraph(path, g, store.GraphMeta{Workload: s.c.w.graph, Seed: graphSeed})
	if err != nil {
		return err
	}
	sp.End()
	t2 := time.Now()
	s.setup = append(s.setup, secs(t2.Sub(t0)))
	s.gens = append(s.gens, secs(t1.Sub(t0)))
	s.writes = append(s.writes, ms(t2.Sub(t1)))
	if s.g == nil {
		s.g, s.digest = g, digest
		return nil
	}
	s.r.attempted++
	if digest != s.digest {
		s.r.fail("set-up: repeated snapshot %s, first %s", digest, s.digest)
	}
	return nil
}

// report sets the set-up metrics: median times (nearest rank).
func (s *setupper) report() {
	s.r.set("setup_s", median(s.setup), "s")
	s.r.set("experiments.generate_s", median(s.gens), "s")
	s.r.set("store.write_graph_ms", median(s.writes), "ms")
}

// builder builds the measured spanner and SLT, a pair at a time, and
// keeps each build's time. Every repeat must give the first result.
type builder struct {
	g              *lightnet.Graph
	r              *report
	opts           []lightnet.Option
	sres           *lightnet.SpannerResult
	lres           *lightnet.SLTResult
	sTimes, lTimes []float64
	sMem, lMem     runtime.MemStats
}

// measure runs one build after a collection, so that no earlier
// garbage is collected inside the timed region.
func (b *builder) measure(phase *Open, name string, build func() error) (time.Duration, runtime.MemStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := phase.Child(name)
	t0 := time.Now()
	err := build()
	d := time.Since(t0)
	sp.End()
	runtime.ReadMemStats(&after)
	b.r.attempted++
	mem := runtime.MemStats{TotalAlloc: after.TotalAlloc - before.TotalAlloc, Mallocs: after.Mallocs - before.Mallocs}
	return d, mem, err
}

// pair builds the spanner, then the SLT.
func (b *builder) pair(root *Open) error {
	phase := root.Child("bench.build")
	defer phase.End()
	var s *lightnet.SpannerResult
	d, mem, err := b.measure(phase, "spanner.build", func() (err error) {
		s, err = lightnet.BuildLightSpanner(b.g, spannerK, eps, b.opts...)
		return err
	})
	if err != nil {
		return err
	}
	if b.sres == nil {
		b.sres, b.sMem = s, mem
	} else if edgeDigest(s.Edges) != edgeDigest(b.sres.Edges) || s.Cost.Rounds != b.sres.Cost.Rounds {
		b.r.fail("spanner: repeated build differs")
	}
	b.sTimes = append(b.sTimes, secs(d))

	var l *lightnet.SLTResult
	d, mem, err = b.measure(phase, "slt.build", func() (err error) {
		l, err = lightnet.BuildSLT(b.g, sltRoot, eps, b.opts...)
		return err
	})
	if err != nil {
		return err
	}
	if b.lres == nil {
		b.lres, b.lMem = l, mem
	} else if edgeDigest(l.TreeEdges) != edgeDigest(b.lres.TreeEdges) || l.Cost.Rounds != b.lres.Cost.Rounds {
		b.r.fail("slt: repeated build differs")
	}
	b.lTimes = append(b.lTimes, secs(d))
	return nil
}

// report sets the build metrics: median times (nearest rank) and the
// first build's counts.
func (b *builder) report() {
	r := b.r
	report := func(obj string, build float64, cost lightnet.Cost, light float64, mem runtime.MemStats, stages []string) map[string]float64 {
		r.set(obj+"_build_s", build, "s")
		r.set(obj+"_rounds", float64(cost.Rounds), "count")
		r.set(obj+"_messages", float64(cost.Messages), "count")
		r.set(obj+"_lightness", light, "ratio")
		r.set(obj+".ns_per_round", ratio(build*1e9, float64(cost.Rounds)), "ns")
		r.set(obj+".messages_per_round", ratio(float64(cost.Messages), float64(cost.Rounds)), "count")
		r.set(obj+".alloc_mb", float64(mem.TotalAlloc)/(1<<20), "MB")
		r.set(obj+".mallocs", float64(mem.Mallocs), "count")
		rounds := make(map[string]float64)
		msgs := make(map[string]float64)
		for _, st := range cost.Stages {
			name := st.Stage
			if strings.HasPrefix(name, "bucket") && obj == "spanner" {
				name = "buckets"
			}
			rounds[name] += float64(st.Rounds)
			msgs[name] += float64(st.Messages)
		}
		for _, st := range stages {
			r.set(obj+".stage."+st+".rounds", rounds[st], "count")
			r.set(obj+".stage."+st+".messages", msgs[st], "count")
		}
		return rounds
	}
	sres, lres := b.sres, b.lres
	sr := report("spanner", median(b.sTimes), sres.Cost, sres.Lightness, b.sMem, spannerStages)
	r.set("spanner.funnel_share", ratio(sr["mst-weight-up"], float64(sres.Cost.Rounds)), "ratio")
	lr := report("slt", median(b.lTimes), lres.Cost, lres.Lightness, b.lMem, sltStages)
	r.set("slt.depth_share", ratio(lr["tree"]+lr["euler-up"]+lr["euler-down"], float64(lres.Cost.Rounds)), "ratio")
}

// running is a served network on a loopback port.
type running struct {
	srv  *serve.Server
	base string
	snap *store.Snapshot
	art  *store.Artifact
	done chan error
}

func (s *running) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// coldStart opens the snapshot and artifact, assembles the network,
// starts its server and waits for the first /healthz OK.
func coldStart(snapPath, artPath string, times map[string][]float64, parent *Open) (*running, error) {
	step := func(name string, f func() error) error {
		sp := parent.Child(name)
		t0 := time.Now()
		err := f()
		times[name] = append(times[name], ms(time.Since(t0)))
		sp.End()
		return err
	}
	s := &running{done: make(chan error, 1)}
	var nw *serve.Network
	err := step("store.open_graph", func() (err error) {
		s.snap, err = store.OpenGraph(snapPath)
		return err
	})
	if err == nil {
		err = step("store.open_artifact", func() (err error) {
			s.art, err = store.OpenArtifact(artPath)
			return err
		})
	}
	if err == nil {
		err = step("serve.network", func() (err error) {
			nw, err = serve.NetworkFromArtifact(s.snap, s.art)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	err = step("serve.listen", func() error {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.srv = serve.NewServer(nw, serve.Options{})
		s.base = "http://" + l.Addr().String()
		go func() { s.done <- s.srv.Serve(l) }()
		c := newLoadgen(s.base, Stream{}, 1, nil)
		defer c.close()
		body, err := get(c.client, s.base+"/healthz")
		if err == nil && string(body) != "ok "+nw.Digest+"\n" {
			err = fmt.Errorf("healthz answered %q", body)
		}
		return err
	})
	if err != nil {
		if s.srv != nil {
			s.stop()
		}
		return nil, err
	}
	return s, nil
}

// builtFiles is what the snapshot and artifact were written from.
type builtFiles struct {
	g           *lightnet.Graph
	graphDigest string
	edges       string // edgeDigest of the spanner
}

// check requires the files a server opened to hold what was built and
// checked: the snapshot the generated graph, the artifact the
// spanner's edge set over that snapshot.
func (b builtFiles) check(s *running) error {
	switch {
	case s.snap.Digest != b.graphDigest:
		return fmt.Errorf("store: snapshot digest %s, written %s", s.snap.Digest, b.graphDigest)
	case graphEdgeDigest(s.snap.Graph) != graphEdgeDigest(b.g):
		return fmt.Errorf("store: snapshot graph differs from the generated graph")
	case s.art.GraphDigest != b.graphDigest:
		return fmt.Errorf("store: artifact pins snapshot %s, written %s", s.art.GraphDigest, b.graphDigest)
	case edgeDigest(s.art.Edges) != b.edges:
		return fmt.Errorf("store: artifact edges %s, built spanner %s", edgeDigest(s.art.Edges), b.edges)
	}
	return nil
}

// serveAndLoad cold-starts fresh servers, sends the workload's stream
// to the first round's last one and checks every answer. The serving
// phase runs in rounds, each one made of the set-up and build repeats
// due in it, a group of cold starts, an open-loop window and
// closed-loop slices, so that every timed metric samples the whole
// phase and a burst of outside load (the shared machine's other
// tenants) moves a few of its samples, not the result.
func serveAndLoad(c config, r *report, snapPath, artPath string, built builtFiles, extra []spreadWork, root *Open) error {
	const rounds, slicesPerRound = 5, 3
	times := make(map[string][]float64)
	var totals []float64
	var srv *running
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// coldStarts starts fresh servers while the round's share of the
	// cold-start budget lasts. Each start begins with the heap collected
	// and its free memory returned to the OS, as in a new process. With
	// keep, the last server started replaces srv; otherwise each is
	// stopped at once.
	coldStarts := func(keep bool) error {
		return repeat(c.budget(0.05/rounds), 3, 40, func() error {
			debug.FreeOSMemory()
			sp := root.Child("bench.coldstart")
			t0 := time.Now()
			s, err := coldStart(snapPath, artPath, times, sp)
			d := time.Since(t0)
			sp.End()
			if err != nil {
				return fmt.Errorf("cold start: %w", err)
			}
			r.attempted++
			totals = append(totals, ms(d))
			if !keep {
				return s.stop()
			}
			if srv != nil {
				if err := srv.stop(); err != nil {
					return err
				}
			}
			srv = s
			return nil
		})
	}

	stream := Stream{Seed: c.seed, N: c.n, HotShare: c.w.hotShare, HotSources: c.w.hotSources, HotTargets: c.w.hotTargets}
	hot := stream.Hot()
	const warm = 200
	openCount := max(c.openMin, int(c.w.rate*c.budget(0.15).Seconds()))
	if err := stream.Validate(warm + openCount); err != nil {
		return err
	}
	// The closed loop stops at n² queries, where cold pairs would repeat.
	limit := c.n * c.n
	var lg *loadgen
	var before serve.Stats
	// The windows take fixed stream segments, in order, so the response
	// digest does not depend on timing; the closed loop takes the stream
	// after them. Traced, untraced and traced slices alternate and their
	// rates give the tracing overhead.
	slice := c.budget(0.35) / (rounds * slicesPerRound)
	from := warm + openCount
	var open [rounds][]sample
	var qps [2][]float64 // untraced, traced
	for w := 0; w < rounds; w++ {
		r.tracer.setOn(true)
		for _, e := range extra {
			for k := e.due(rounds, w); k > 0; k-- {
				if err := e.do(); err != nil {
					return err
				}
			}
		}
		if err := coldStarts(w == 0); err != nil {
			return err
		}
		if w == 0 {
			r.attempted++
			if err := built.check(srv); err != nil {
				r.fail("%v", err)
			}
			if c.trace {
				sweepProbe(c, r, srv.srv.Network(), root)
			}
			lg = newLoadgen(srv.base, stream, conns, r.tracer)
			defer lg.close()
			// The warm-up sends every hot query once, so the measured
			// phases find the hot set cached, then the stream's first
			// segment.
			lg.closed("loadgen.warmup", len(hot), time.Time{}, func(k int) Query { return hot[k] })
			lg.closed("loadgen.warmup", warm, time.Time{}, lg.segment(0))
			before = srv.srv.Stats()
		}
		// Collect the garbage of the builds and cold starts and return
		// it to the OS before timing, so neither the collector nor the
		// scavenger works on it mid-load.
		debug.FreeOSMemory()
		lo, hi := warm+w*openCount/rounds, warm+(w+1)*openCount/rounds
		open[w] = lg.open(lo, hi-lo, c.w.rate)
		for j := 0; j < slicesPerRound; j++ {
			i := w*slicesPerRound + j
			on := c.trace && (i+1)%4 >= 2
			r.tracer.setOn(on)
			t0 := time.Now()
			k := lg.closed("loadgen.closed", limit-from, t0.Add(slice), lg.segment(from))
			side := 0
			if on {
				side = 1
			}
			qps[side] = append(qps[side], float64(k)/time.Since(t0).Seconds())
			from += k
		}
	}
	r.set("coldstart_ms", median(totals), "ms")
	for _, name := range []string{"store.open_graph", "store.open_artifact", "serve.network", "serve.listen"} {
		r.set(name+"_ms", median(times[name]), "ms")
	}
	r.tracer.setOn(true)
	after := srv.srv.Stats()
	r.digests = append(r.digests, "response="+lg.responseDigest(warm+openCount))

	// serve_p50_ms is the median window's p50. A burst of outside load
	// delays far more than 1% of a window's requests, so serve.p99_ms
	// is the lowest window's p99: the tail the service itself sets.
	var p50s, p99s []float64
	var late, rtt []float64
	for _, win := range open {
		var lat []float64
		for _, s := range win {
			lat = append(lat, ms(s.latency()))
			late = append(late, ms(s.late()))
			rtt = append(rtt, float64(s.done-s.sent)/float64(time.Microsecond))
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	r.set("serve_p50_ms", median(p50s), "ms")
	r.set("serve.p99_ms", quantile(p99s, 0), "ms")
	r.set("serve_qps", median(qps[0]), "1/s")
	r.set("serve.http_rtt_us.p50", quantile(rtt, 0.5), "us")
	r.set("loadgen.late_ms.p99", quantile(late, 0.99), "ms")
	// The open loop's offered rate as a share of the closed loop's
	// capacity: well below 1, or the open-loop latency measures
	// queueing.
	r.set("loadgen.utilisation", ratio(c.w.rate, median(qps[0])), "ratio")
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	r.set("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	r.set("serve.batch_mean", ratio(float64(after.BatchedQueries-before.BatchedQueries), float64(after.Batches-before.Batches)), "count")
	r.set("serve.sweeps_per_query", ratio(float64(after.Sweeps-before.Sweeps), float64(after.Queries-before.Queries)), "ratio")
	// Traffic shares of the measured phases, counting the warm-up's
	// queries as sent before.
	prior := append(append([]Query(nil), hot...), queries(stream, 0, warm)...)
	rep, src := Shares(prior, queries(stream, warm, from))
	r.set("loadgen.repeat_share", rep, "ratio")
	r.set("loadgen.source_share", src, "ratio")
	if c.trace {
		r.set("trace.overhead_ratio", ratio(median(qps[0]), median(qps[1])), "ratio")
	}

	sp := root.Child("check.answers")
	r.attempted += len(hot) + from
	r.failed += int(lg.failed.Load())
	r.failures = append(r.failures, lg.failures...)
	checkServed(r, srv, lg)
	sp.End()
	return nil
}

// spreadWork is work repeated count times over the serving rounds.
type spreadWork struct {
	count int
	do    func() error
}

// due is how many repeats fall to round w of rounds when they are
// spread evenly, the first ones in the middle rounds.
func (e spreadWork) due(rounds, w int) int {
	at := func(w int) int { return int(float64(w*e.count)/float64(rounds) + 0.5) }
	return at(w+1) - at(w)
}

// sweepProbe times direct Network.Sweep calls from seeded sources.
func sweepProbe(c config, r *report, nw *serve.Network, root *Open) {
	var t []float64
	phase := root.Child("bench.sweeps")
	i := 0
	repeat(c.budget(0.05), 20, 500, func() error {
		src := lightnet.Vertex(mix(c.seed, 0x5e, uint64(i)) % uint64(c.n))
		i++
		sp := phase.Child("serve.sweep")
		t0 := time.Now()
		nw.Sweep(src, []serve.Query{{Kind: serve.KindDistance, U: src, V: 0}})
		t = append(t, ms(time.Since(t0)))
		sp.End()
		return nil
	})
	phase.End()
	r.set("serve.sweep_ms.p50", quantile(t, 0.5), "ms")
	r.set("serve.sweep_ms.p99", quantile(t, 0.99), "ms")
}

// checkServed compares the answer to every distinct query served with
// reference distances computed from the opened snapshot and artifact,
// sweeps per source on conns goroutines, each stopping once the
// source's targets are settled: on the served subgraph, and
// on the whole graph for a source with a stretch query. A wrong answer
// fails every request that received it.
func checkServed(r *report, srv *running, lg *loadgen) {
	h := newAdjacency(srv.snap.Graph, srv.art.Edges)
	all := make([]lightnet.EdgeID, srv.snap.Graph.M())
	for i := range all {
		all[i] = lightnet.EdgeID(i)
	}
	base := newAdjacency(srv.snap.Graph, all)
	bySource := make(map[int32][]Query)
	for q := range lg.bodies {
		bySource[q.U] = append(bySource[q.U], q)
	}
	next := make(chan int32, len(bySource)) // sized to the number of sends
	for u := range bySource {
		next <- u
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				var all, stretch []int32
				for _, q := range bySource[u] {
					all = append(all, q.V)
					if q.Kind == kindStretch {
						stretch = append(stretch, q.V)
					}
				}
				ref := reference{h: h, ref: h.from(u, all), maxStretch: float64(2*spannerK-1) * (1 + eps)}
				if len(stretch) > 0 {
					ref.base = base.from(u, stretch)
				}
				for _, q := range bySource[u] {
					if err := checkAnswer(ref, q, lg.bodies[q]); err != nil {
						mu.Lock()
						r.failed += lg.count[q]
						if len(r.failures) < 20 {
							r.failures = append(r.failures, err.Error())
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
}

// queries returns the stream's queries [from, to).
func queries(s Stream, from, to int) []Query {
	qs := make([]Query, to-from)
	for i := range qs {
		qs[i] = s.At(from + i)
	}
	return qs
}

// graphEdgeDigest folds a graph's vertex count and edge list, weights
// bit for bit (FNV-1a 64).
func graphEdgeDigest(g *lightnet.Graph) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d;", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d,%d,%x;", e.U, e.V, math.Float64bits(e.W))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// edgeDigest folds an edge id list (FNV-1a 64).
func edgeDigest(ids []lightnet.EdgeID) string {
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%d,", id)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
