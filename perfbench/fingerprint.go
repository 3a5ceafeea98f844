package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machine identifies where a result was measured. Results whose
// fingerprints differ in any machine field are never compared.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit names the measured source tree: a hash of every Go source
	// and module file outside the benchmark's own directory (the
	// checkout need not be a git repository).
	Commit string `json:"commit"`
}

// record is the per-run result file the compare subcommand reads.
type record struct {
	Fingerprint machine       `json:"fingerprint"`
	Workload    string        `json:"workload"`
	Seed        uint64        `json:"seed"`
	Scale       string        `json:"scale"`
	Traced      bool          `json:"traced"`
	Seconds     float64       `json:"seconds"`
	Named       []namedMetric `json:"named"`
	Result      result        `json:"result"`
}

func fingerprint(root string) machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes the program's sources (paths and contents, in path
// order), skipping the benchmark and its build state.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareResults prints the metric-by-metric ratio of two result files,
// refusing when they were measured on different machines or toolchains,
// or are results of different workloads, scales or run kinds.
func compareResults(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare <base.json> <new.json>")
	}
	var rs [2]record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0], rs[1]
	fa, fb := a.Fingerprint, b.Fingerprint
	fa.Commit, fb.Commit = "", ""
	if fa != fb {
		return fmt.Errorf("refusing to compare: fingerprints differ (%+v vs %+v)", a.Fingerprint, b.Fingerprint)
	}
	if a.Workload != b.Workload || a.Scale != b.Scale || a.Traced != b.Traced || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: runs differ (%s/%s/traced=%v/%gs vs %s/%s/traced=%v/%gs)",
			a.Workload, a.Scale, a.Traced, a.Seconds, b.Workload, b.Scale, b.Traced, b.Seconds)
	}
	fmt.Printf("%s: %s (seed %d) vs %s (seed %d) on %s, nproc %d\n",
		a.Workload, a.Fingerprint.Commit, a.Seed, b.Fingerprint.Commit, b.Seed, fa.CPU, fa.NProc)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		ratio := 0.0
		if ma.Value != 0 {
			ratio = mb.Value / ma.Value
		}
		fmt.Printf("  %-30s %14.6g %14.6g %-8s x%.3f\n", n, ma.Value, mb.Value, ma.Unit, ratio)
	}
	return nil
}
