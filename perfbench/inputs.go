package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
)

// scale fixes the input sizes and chain lengths of every workload.
type scale struct {
	name string
	// mlScale and chemblScale scale datagen's ml-20m and chembl specs.
	mlScale, chemblScale float64
	k                    int
	// mlIters and chemblIters are the chain length of one training run.
	mlIters, chemblIters int
	// chemblShardNNZ sizes the .bcsr shards so each rank maps several.
	chemblShardNNZ int
	// batch is the ratings per refresh batch, newUsers how many users
	// absent from the base each batch introduces.
	batch, newUsers int
	// lo and hi are serve-mix's open-loop rates (req/s): about a quarter
	// and two thirds of the closed-loop rate measured on the reference
	// machine, fixed so every commit is offered the same load.
	lo, hi float64
	// reloadRate is refresh's fixed serving rate (req/s).
	reloadRate float64
	// sloMS is the p99 latency limit of serve-mix's rps_slo.
	sloMS float64
}

var scales = map[string]scale{
	"full": {
		name: "full", mlScale: 0.1, chemblScale: 0.25, k: 32,
		mlIters: 4, chemblIters: 4, chemblShardNNZ: 16000,
		batch: 20000, newUsers: 20,
		lo: 600, hi: 1600, reloadRate: 200, sloMS: 2,
	},
	"tiny": {
		name: "tiny", mlScale: 0.004, chemblScale: 0.01, k: 8,
		mlIters: 3, chemblIters: 3, chemblShardNNZ: 1000,
		batch: 400, newUsers: 4,
		lo: 100, hi: 200, reloadRate: 50, sloMS: 50,
	},
}

// keepSeeds bounds the input cache: a seed's inputs take about 40 MB at
// the full scale, and a series of benchmark runs cycles through ten seeds or so.
const keepSeeds = 12

// evictInputs marks dir as the most recently used seed directory and
// removes the least recently used ones beyond keepSeeds.
func evictInputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	now := time.Now()
	if err := os.Chtimes(dir, now, now); err != nil {
		return err
	}
	entries, err := os.ReadDir(filepath.Dir(dir))
	if err != nil {
		return err
	}
	type seedDir struct {
		path string
		used time.Time
	}
	var dirs []seedDir
	for _, de := range entries {
		if info, err := de.Info(); err == nil && de.IsDir() {
			dirs = append(dirs, seedDir{filepath.Join(filepath.Dir(dir), de.Name()), info.ModTime()})
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].used.After(dirs[j].used) })
	for _, d := range dirs[min(len(dirs), keepSeeds):] {
		if err := os.RemoveAll(d.path); err != nil {
			return err
		}
	}
	return nil
}

// testFrac is the held-out fraction every training run uses.
const testFrac = 0.2

// cached returns path, generating it first through gen(tmp) when absent.
// gen writes a temporary path (same extension) that is renamed into
// place, so a run that dies mid-generation never leaves a truncated input
// behind.
func cached(path string, gen func(tmp string) error) (string, error) {
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	ext := filepath.Ext(path)
	tmp := strings.TrimSuffix(path, ext) + ".tmp" + ext
	if err := gen(tmp); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("generating %s: %w", filepath.Base(path), err)
	}
	return path, os.Rename(tmp, path)
}

// writeDataset runs datagen for the named spec at the given scale and
// seed, writing .bcsr with shardNNZ entries per shard (0 = default). The
// data is generated in a child process so the benchmark process itself
// stays small: a child's peak RSS counts its parent's at the time of
// exec.
func writeDataset(e *env, path, spec string, sc float64, shardNNZ int) error {
	p, err := startProc(e, e.work, "datagen", nil, "-spec", spec, "-scale", strconv.FormatFloat(sc, 'g', -1, 64),
		"-seed", strconv.FormatUint(e.seed, 10), "-shard-nnz", strconv.Itoa(shardNNZ), "-out", path)
	if err != nil {
		return err
	}
	return p.wait(10 * time.Minute)
}

// mlData returns the ml-20m-shaped rating file of the seed.
func mlData(e *env) (string, error) {
	return cached(filepath.Join(e.inputs, "ml.bcsr"), func(tmp string) error {
		return writeDataset(e, tmp, "ml-20m", e.sc.mlScale, 0)
	})
}

// chemblData returns the sharded chembl-shaped rating file of the seed.
func chemblData(e *env) (string, error) {
	return cached(filepath.Join(e.inputs, "chembl.bcsr"), func(tmp string) error {
		return writeDataset(e, tmp, "chembl", e.sc.chemblScale, e.sc.chemblShardNNZ)
	})
}

// trainArgs are the chain flags shared by every ml training command.
func trainArgs(e *env, data string, iters int) []string {
	return []string{"-data", data, "-k", strconv.Itoa(e.sc.k), "-iters", strconv.Itoa(iters),
		"-burnin", strconv.Itoa(iters / 2), "-seed", strconv.FormatUint(e.seed, 10),
		"-test", strconv.FormatFloat(testFrac, 'g', -1, 64)}
}

// mlReference runs the sequential reference sampler once per seed. It
// writes the base checkpoint serve-mix and refresh start from and
// returns the chain signature every train-ml run must reproduce.
func mlReference(e *env) (sig, ckpt string, err error) {
	data, err := mlData(e)
	if err != nil {
		return "", "", err
	}
	ckpt = filepath.Join(e.inputs, "base.ckpt")
	sigPath, err := cached(filepath.Join(e.inputs, "ml-reference.txt"), func(tmp string) error {
		args := append(trainArgs(e, data, e.sc.mlIters), "-engine", "sequential", "-ckpt-out", ckpt)
		p, err := startProc(e, e.work, "bpmf", nil, args...)
		if err != nil {
			return err
		}
		if err := p.wait(10 * time.Minute); err != nil {
			return err
		}
		lines := p.snapshot()
		return os.WriteFile(tmp, []byte(chainSignature(lines)), 0o644)
	})
	if err != nil {
		return "", "", err
	}
	b, err := os.ReadFile(sigPath)
	return string(b), ckpt, err
}

// chainSignature keeps the chain-determined parts of a bpmf run's output:
// every iteration's RMSE line, the final RMSE and the kernel counts
// (throughput, which varies run to run, is dropped).
func chainSignature(lines []line) string {
	var b strings.Builder
	for _, l := range lines {
		t := l.text
		switch {
		case strings.HasPrefix(t, "iter "):
			b.WriteString(strings.Join(strings.Fields(t), " ") + "\n")
		case strings.HasPrefix(t, "final RMSE"):
			f := strings.Fields(t)
			b.WriteString("final RMSE " + f[2] + "\n")
			if i := strings.Index(t, "kernels["); i >= 0 {
				b.WriteString(t[i:] + "\n")
			}
		}
	}
	return b.String()
}

// refreshBatch returns the seeded rating batch number b as "user item
// value" lines: newUsers users past the current user count (base users
// plus those of earlier batches) with 50 ratings each, the rest spread
// over existing users. It also returns the first new user's id.
func refreshBatch(e *env, baseUsers, items, b int) (string, int, error) {
	first := baseUsers + b*e.sc.newUsers
	path, err := cached(filepath.Join(e.inputs, "batches", fmt.Sprintf("%05d.txt", b)), func(tmp string) error {
		s := rng.NewKeyed(e.seed, 0xba7c4, uint64(b))
		var buf bytes.Buffer
		n := 0
		emit := func(u int) {
			fmt.Fprintf(&buf, "%d %d %g\n", u, s.Intn(items), float64(2+s.Intn(9))/2)
			n++
		}
		perUser := min(50, e.sc.batch/(2*e.sc.newUsers))
		for j := 0; j < e.sc.newUsers; j++ {
			for r := 0; r < perUser; r++ {
				emit(first + j)
			}
		}
		for n < e.sc.batch {
			emit(s.Intn(first))
		}
		return os.WriteFile(tmp, buf.Bytes(), 0o644)
	})
	return path, first, err
}
