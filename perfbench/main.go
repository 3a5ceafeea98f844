// Command perfbench is the repository's benchmark. It runs one workload
// against the BPMF commands built from the checkout it is started in and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json,
// measured by driving the shipped bpmf, bpmf-dist, bpmf-serve and
// bpmf-trainer commands as a user would. With -trace 1 they are the
// per-layer set, measured by an in-process runner that puts a span around
// every call into a layer. The lines before the JSON name every metric the
// workload defines, with its unit.
//
// Usage (normally through perfbench/run.py, which builds the commands):
//
//	perfbench -workload train-ml -seed 1 -seconds 16 -trace 0 -root . -bin .bench_build/bin
//	perfbench compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// namedMetric is a workload-specific metric printed by name; the gated
// end-to-end metrics are derived from these.
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operations, output checks and metrics.
type report struct {
	attempted, failed int64
	problems          []string
	named             []namedMetric
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// ops records n attempted operations of which bad failed.
func (r *report) ops(n, bad int64) {
	r.attempted += n
	r.failed += bad
}

// check records one output check; a mismatch counts as a failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a workload-specific metric, printed by name with its unit.
func (r *report) set(name string, v float64, unit string) {
	r.named = append(r.named, namedMetric{name, v, unit})
}

// gate records a metric of the result line.
func (r *report) gate(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

// The end-to-end metrics every workload reports (BENCHMARK.json's
// end_to_end list); each workload maps its own measurements onto them.
var endToEnd = []string{"setup_s", "throughput", "latency_ms", "rss_mb"}

// perLayer is BENCHMARK.json's per_layer list, every name in the order it
// is printed. A traced run reports all of them; a layer the workload
// bypasses reads 0.
var perLayer = []string{
	"core.update_s.rankone", "core.update_s.serial_chol", "core.update_s.parallel_chol",
	"core.updates.rankone", "core.updates.serial_chol", "core.updates.parallel_chol",
	"core.hyper_s", "core.score_s",
	"la.flops.rankone", "la.flops.serial_chol", "la.flops.parallel_chol",
	"la.bytes.rankone", "la.bytes.serial_chol", "la.bytes.parallel_chol",
	"la.gflops.rankone", "la.gflops.serial_chol", "la.gflops.parallel_chol",
	"sched.busy_frac", "sched.sweep_speedup",
	"partition.build_s", "partition.nnz_imbalance",
	"comm.bytes_per_update", "comm.msgs_per_iter", "comm.items_per_msg",
	"dist.compute_s", "dist.wait_s", "dist.wait_frac", "dist.overlap_frac",
	"sparse.load_s", "sparse.merge_s",
	"feed.append_ms", "feed.compact_s",
	"core.resume_s", "core.iter_s.seq", "core.ckpt_write_s",
	"rank.score_us", "rank.topn_us",
	"serve.model_us.predict", "serve.model_us.recommend",
	"serve.batcher_us.recommend", "serve.batch_wait_us",
	"serve.publish_s", "serve.reload_s",
	"bpmf-serve.overhead_us",
	"load.late_ms_p99", "load.unsent",
	"trace.overhead_frac", "trace.unaccounted_frac",
}

// perLayerUnit gives each per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "core.updates."), name == "load.unsent":
		return "count"
	case strings.HasPrefix(name, "la.flops."):
		return "flop"
	case strings.HasPrefix(name, "la.bytes."):
		return "B"
	case strings.HasPrefix(name, "la.gflops."):
		return "Gflop/s"
	case name == "comm.bytes_per_update":
		return "B"
	case name == "comm.msgs_per_iter", name == "comm.items_per_msg", name == "partition.nnz_imbalance",
		name == "sched.sweep_speedup":
		return "x"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "_us"), strings.Contains(name, "_us."):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms_"):
		return "ms"
	default:
		return "s"
	}
}

// env is what every workload needs to run.
type env struct {
	bin     string // directory of the built commands
	seed    uint64
	seconds float64
	sc      scale
	inputs  string // per-seed input cache directory
	work    string // per-run scratch directory, removed at exit
	runID   string
}

// workload is one benchmark workload: an end-to-end run over the shipped
// commands and a traced in-process run of the same work.
type workload struct {
	e2e    func(*env, *report) error
	traced func(*env, *report, *tracer) error
}

var workloads = map[string]workload{
	"train-ml":    {e2e: trainE2E, traced: trainTraced},
	"dist-chembl": {e2e: distE2E, traced: distTraced},
	"serve-mix":   {e2e: serveE2E, traced: serveTraced},
	"refresh":     {e2e: refreshE2E, traced: refreshTraced},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareResults(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "train-ml | dist-chembl | serve-mix | refresh")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 16, "measured time of the run")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics over the commands; 1 = traced per-layer run")
		root    = flag.String("root", ".", "checkout root")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the built commands")
		scaleN  = flag.String("scale", "full", "input scale: full | tiny (smoke test)")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *root, *bin, *scaleN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run executes one workload run and returns its result line.
func run(name string, seed uint64, seconds float64, traced bool, root, bin, scaleName string) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want train-ml | dist-chembl | serve-mix | refresh)", name)
	}
	sc, ok := scales[scaleName]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scaleName)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %g", seconds)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if !filepath.IsAbs(bin) {
		bin = filepath.Join(root, bin)
	}
	for _, c := range []string{"bpmf", "bpmf-dist", "bpmf-serve", "bpmf-trainer", "datagen"} {
		if _, err := os.Stat(filepath.Join(bin, c)); err != nil {
			return nil, fmt.Errorf("command %s not built in %s: %w", c, bin, err)
		}
	}
	state := filepath.Join(root, ".bench_build")
	e := &env{
		bin: bin, seed: seed, seconds: seconds, sc: sc,
		inputs: filepath.Join(state, "inputs", fmt.Sprintf("%s-s%d", sc.name, seed)),
		runID:  fmt.Sprintf("%s-s%d-%d", name, seed, time.Now().UnixNano()),
	}
	if err := evictInputs(e.inputs); err != nil {
		return nil, err
	}
	e.work = filepath.Join(state, "work", e.runID)
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	rep := newReport()
	var tr *tracer
	if traced {
		tr = newTracer(true)
		err = w.traced(e, rep, tr)
	} else {
		err = w.e2e(e, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	want := endToEnd
	if traced {
		want = perLayer
		for _, n := range perLayer {
			if _, ok := rep.metrics[n]; !ok {
				rep.gate(n, 0, perLayerUnit(n)) // layer bypassed by this workload
			}
		}
		if err := tr.write(filepath.Join(state, "traces", name+".tsv"), e.runID); err != nil {
			return nil, err
		}
	}
	for _, n := range want {
		if _, ok := rep.metrics[n]; !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, n)
		}
	}
	for n := range rep.metrics {
		if !slices.Contains(want, n) {
			return nil, fmt.Errorf("%s: metric %s is not in the reported set", name, n)
		}
	}

	fp := fingerprint(root)
	for _, m := range rep.named {
		fmt.Printf("%s %s = %.6g %s\n", name, m.Name, m.Value, m.Unit)
	}
	if traced {
		for _, n := range perLayer {
			fmt.Printf("%s %s = %.6g %s\n", name, n, rep.metrics[n].Value, rep.metrics[n].Unit)
		}
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%s fail_frac = %.6g ratio (%d of %d)\n", name, frac, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)

	res := &result{
		Correct:   len(rep.problems) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	rec := record{Fingerprint: fp, Workload: name, Seed: seed, Scale: sc.name, Traced: traced,
		Seconds: seconds, Named: rep.named, Result: *res}
	out := filepath.Join(state, "results", fmt.Sprintf("%s-s%d-trace%d.json", name, seed, b2i(traced)))
	if err := writeJSONFile(out, rec); err != nil {
		return nil, err
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeJSONFile writes v as indented JSON through a temp file and rename.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes data to path via a temp file and rename, so an
// interrupted run never leaves a half-written cache or result file.
func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
