package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"lightnet"
	"lightnet/internal/experiments"
	"lightnet/internal/store"
)

// runBuild is the build-once half of the build-once/serve-many split:
// generate a scenario graph, snapshot it to a *.csrz file, optionally
// build a spanner or SLT on it and serialize the result as a *.art
// artifact pinned to the snapshot's digest. `lightnet serve -snapshot
// ... -artifact ...` then cold-starts from the files without
// regenerating or rebuilding anything.
//
// The timing line is machine-parseable (the CI cold-start gate compares
// it against serve's boot time):
//
//	timing: generate_ms=12 build_ms=340 write_ms=8
func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	var (
		kind     = fs.String("graph", "er", "scenario spec (see `lightnet scenarios`)")
		n        = fs.Int("n", 512, "number of vertices")
		seed     = fs.Int64("seed", 1, "generator and build seed")
		obj      = fs.String("obj", "spanner", "artifact to build: spanner | slt | sltinv | none")
		k        = fs.Int("k", 2, "spanner stretch parameter")
		eps      = fs.Float64("eps", 0.25, "ε (γ for sltinv)")
		root     = fs.Int("root", 0, "SLT root")
		snapPath = fs.String("snapshot", "", "write the graph snapshot (*.csrz) here (required)")
		artPath  = fs.String("artifact", "", "write the build artifact (*.art) here (required unless -obj none)")
		sf       = addSpecFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *snapPath == "" {
		return errors.New("-snapshot is required: the path to write the graph snapshot")
	}
	var spec experiments.Spec
	switch *obj {
	case "none":
		if err := sf.unused(*obj); err != nil {
			return err
		}
	case "spanner", "slt", "sltinv":
		if *artPath == "" {
			return errors.New("-artifact is required unless -obj none")
		}
		var err error
		if spec, err = sf.spec(experiments.Spec{Construction: *obj, K: *k, Eps: *eps, Gamma: *eps}); err != nil {
			return err
		}
		// As in a store-enabled grid, a faulted build is diagnostic and
		// writes no artifact.
		if spec.Faults != nil {
			return errors.New("-faults builds are diagnostic and write no artifact (run `lightnet -obj ... -faults` instead)")
		}
	default:
		return fmt.Errorf("unknown -obj %q (spanner|slt|sltinv|none)", *obj)
	}

	t0 := time.Now()
	g, err := makeGraph(*kind, *n, *seed)
	if err != nil {
		return err
	}
	g.Freeze()
	generateMS := time.Since(t0).Milliseconds()

	tw := time.Now()
	graphDigest, err := store.WriteGraph(*snapPath, g, store.GraphMeta{Workload: *kind, Seed: *seed})
	if err != nil {
		return err
	}
	writeMS := time.Since(tw).Milliseconds()
	fmt.Printf("snapshot: %s n=%d m=%d digest=%s\n", *snapPath, g.N(), g.M(), graphDigest)

	var buildMS int64
	if *obj != "none" {
		opts := spec.Options(*seed, *sf.workers)
		var art *store.Artifact
		tb := time.Now()
		switch *obj {
		case "spanner":
			res, err := lightnet.BuildLightSpanner(g, spec.K, spec.Eps, opts...)
			if err != nil {
				return err
			}
			art = lightnet.SpannerArtifact(res, g, graphDigest, spec.K, spec.Eps, *seed)
		case "slt":
			res, err := lightnet.BuildSLT(g, lightnet.Vertex(*root), spec.Eps, opts...)
			if err != nil {
				return err
			}
			art = lightnet.SLTArtifact(res, g, graphDigest, "slt", spec.Eps, *seed)
		case "sltinv":
			res, err := lightnet.BuildSLTInverse(g, lightnet.Vertex(*root), spec.Gamma, opts...)
			if err != nil {
				return err
			}
			art = lightnet.SLTArtifact(res, g, graphDigest, "sltinv", spec.Gamma, *seed)
		}
		buildMS = time.Since(tb).Milliseconds()

		tw := time.Now()
		artDigest, err := store.WriteArtifact(*artPath, art)
		if err != nil {
			return err
		}
		writeMS += time.Since(tw).Milliseconds()
		fmt.Printf("artifact: %s kind=%s edges=%d lightness=%.2f digest=%s\n",
			*artPath, art.Kind, len(art.Edges), art.Lightness, artDigest)
	}
	fmt.Printf("timing: generate_ms=%d build_ms=%d write_ms=%d\n", generateMS, buildMS, writeMS)
	return nil
}
