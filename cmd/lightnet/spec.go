package main

import (
	"flag"
	"fmt"

	"lightnet/internal/congest"
	"lightnet/internal/experiments"
)

// specFlags are the build-description flags `lightnet` and `lightnet
// build` share. They fill the same experiments.Spec fields a grid file
// does, so both commands validate and map them with the grid's rules.
type specFlags struct {
	mode, cluster, faults *string
	workers, retries      *int
}

func addSpecFlags(fs *flag.FlagSet) specFlags {
	return specFlags{
		mode:    fs.String("mode", "accounted", "slt/spanner execution: accounted (ledger formulas) | measured (genuine engine message passing)"),
		cluster: fs.String("cluster", "", "spanner per-bucket algorithm: en17 (default) | greedy | baswana (measured mode implies baswana)"),
		workers: fs.Int("workers", 0, "engine worker pool for measured runs (0 = GOMAXPROCS)"),
		faults:  fs.String("faults", "", "fault spec for measured runs, e.g. drop=0.01,crash=5@10 (docs/ARCHITECTURE.md)"),
		retries: fs.Int("retries", 0, "per-stage validator retry budget for -faults runs (0 = default)"),
	}
}

// spec completes base (construction and parameters) with the flags and
// validates it.
func (f specFlags) spec(base experiments.Spec) (experiments.Spec, error) {
	s := base
	s.Mode, s.Cluster, s.StageRetries = *f.mode, *f.cluster, *f.retries
	if *f.faults != "" {
		plan, err := congest.ParseFaultSpec(*f.faults)
		if err != nil {
			return s, err
		}
		s.Faults = plan
	}
	return s, s.Validate()
}

// unused rejects build-description flags on an object that is not built
// from a Spec.
func (f specFlags) unused(obj string) error {
	if *f.mode != "accounted" || *f.cluster != "" || *f.faults != "" || *f.retries != 0 {
		return fmt.Errorf("-mode, -cluster, -faults and -retries do not apply to -obj %s", obj)
	}
	return nil
}
