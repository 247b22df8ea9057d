package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/experiments"
)

// TestCLIRejectsWithSpecRules: `lightnet` and `lightnet build` describe
// a build with the grid's Spec, so a contradictory flag combination
// fails with exactly Spec.Validate's message, before any graph is
// generated or any file written.
func TestCLIRejectsWithSpecRules(t *testing.T) {
	cases := []struct {
		name string
		args []string
		spec experiments.Spec
	}{
		{"measured sltinv", []string{"-obj", "sltinv", "-mode", "measured"},
			experiments.Spec{Construction: "sltinv", Mode: "measured"}},
		{"cluster on slt", []string{"-obj", "slt", "-cluster", "baswana"},
			experiments.Spec{Construction: "slt", Cluster: "baswana"}},
		{"measured greedy spanner", []string{"-obj", "spanner", "-mode", "measured", "-cluster", "greedy"},
			experiments.Spec{Construction: "spanner", Mode: "measured", Cluster: "greedy"}},
		{"faults without measured", []string{"-obj", "slt", "-faults", "drop=0.01"},
			experiments.Spec{Construction: "slt", Faults: &congest.FaultPlan{Drop: 0.01}}},
		{"retries without faults", []string{"-obj", "slt", "-mode", "measured", "-retries", "3"},
			experiments.Spec{Construction: "slt", Mode: "measured", StageRetries: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.spec.Validate()
			if want == nil {
				t.Fatalf("Spec.Validate accepts %+v", tc.spec)
			}
			if err := run(append([]string{"-n", "16"}, tc.args...)); err == nil || err.Error() != want.Error() {
				t.Errorf("run: got error %v, want %q", err, want)
			}
			dir := t.TempDir()
			snap := filepath.Join(dir, "g.csrz")
			args := append([]string{"-n", "16", "-snapshot", snap, "-artifact", filepath.Join(dir, "g.art")}, tc.args...)
			if err := runBuild(args); err == nil || err.Error() != want.Error() {
				t.Errorf("runBuild: got error %v, want %q", err, want)
			}
			if _, err := os.Stat(snap); !os.IsNotExist(err) {
				t.Errorf("runBuild wrote a snapshot before rejecting its flags (stat: %v)", err)
			}
		})
	}
}

// TestBuildArtifactMatchesGridCell: the same build gets the same bytes
// whichever path runs it — `lightnet build` and a store-enabled grid
// cell go through one builder and one artifact packager.
func TestBuildArtifactMatchesGridCell(t *testing.T) {
	dir := t.TempDir()
	grid := &experiments.Grid{
		Seed: 1, Sizes: []int{128}, Workloads: []string{"er"}, Store: true,
		Experiments: []experiments.Spec{
			{Construction: "spanner", K: 2, Eps: 0.25},
			{Construction: "slt", Eps: 0.25},
			{Construction: "sltinv", Gamma: 0.25},
		},
	}
	runDir := filepath.Join(dir, "run")
	if err := experiments.RunGrid(grid, runDir, nil); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(runDir, "manifest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gridArt := map[string]string{} // construction → artifact path
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		cell, rel, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("manifest line without an artifact: %q", line)
		}
		name, _, _ := strings.Cut(cell, "|") // e.g. 02-slt
		gridArt[name[strings.Index(name, "-")+1:]] = filepath.Join(runDir, rel)
	}
	for _, obj := range []string{"spanner", "slt", "sltinv"} {
		t.Run(obj, func(t *testing.T) {
			art := filepath.Join(dir, obj+".art")
			err := runBuild([]string{"-graph", "er", "-n", "128", "-seed", "1", "-obj", obj, "-eps", "0.25",
				"-snapshot", filepath.Join(dir, obj+".csrz"), "-artifact", art})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(art)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(gridArt[obj])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("lightnet build -obj %s artifact differs from the grid cell's %s", obj, gridArt[obj])
			}
		})
	}
}
