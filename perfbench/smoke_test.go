package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload end to end and traced at the tiny scale:
// each must pass its output checks, fail nothing and report exactly its
// metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the commands and runs every workload")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/bpmf", "./cmd/bpmf-dist", "./cmd/bpmf-serve", "./cmd/bpmf-trainer", "./cmd/datagen")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the commands: %v\n%s", err, out)
	}
	for _, name := range []string{"train-ml", "dist-chembl", "serve-mix", "refresh"} {
		for _, traced := range []bool{false, true} {
			res, err := run(name, 3, 1, traced, root, bin, "tiny")
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {-5, 2}}
	if got := covered(ivs, 0, 25); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	if _, ok := quantile(v, 0.99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it")
	}
	if _, ok := quantile(v[:999], 0.99); ok {
		t.Error("p99 of 999 samples has fewer than 10 beyond it")
	}
}

func TestFreePortsBelowEphemeral(t *testing.T) {
	base, err := freePorts(2)
	if err != nil {
		t.Fatal(err)
	}
	if base < 1024 || base+2 > ephemeralLow() {
		t.Errorf("freePorts(2) = %d, want a run of two ports in [1024, %d)", base, ephemeralLow())
	}
}
