// Shard-native loading benchmarks (the pr5-shardload series of
// BENCH_kernels.json): the full-decode baseline (ReadBinary) against
// what a distributed rank actually pays — mapping the file and decoding
// only the quarter of the shards covering its own row range. Same
// ml-20m 5%-scale synthetic as BenchmarkIngest, written with
// 2^14-entry shards (~60 panels). Record with:
//
//	go test -run='^$' -bench=BenchmarkShardLoad -benchmem . |
//	    go run ./cmd/bench2json -label pr5-shardload -out BENCH_kernels.json
package bpmf_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/sparse"
)

var shardLoadData struct {
	once sync.Once
	path string
	csr  *sparse.CSR
	size int64
}

func shardLoadSetup(b *testing.B) (string, *sparse.CSR, int64) {
	b.Helper()
	shardLoadData.once.Do(func() {
		csr, _, _ := ingestSetup(b)
		dir, err := os.MkdirTemp("", "bpmf-shardload")
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, "bench.bcsr")
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		if err := sparse.WriteBinarySharded(f, csr, 1<<14); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			panic(err)
		}
		shardLoadData.path = path
		shardLoadData.csr = csr
		shardLoadData.size = st.Size()
	})
	return shardLoadData.path, shardLoadData.csr, shardLoadData.size
}

func BenchmarkShardLoad(b *testing.B) {
	path, csr, size := shardLoadSetup(b)
	entries := csr.NNZ()

	b.Run("read_binary/ml20m-5pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			a, err := sparse.ReadBinary(f)
			f.Close()
			if err != nil || a.NNZ() != entries {
				b.Fatalf("read failed: %v", err)
			}
		}
		reportIngest(b, int(size), entries)
	})

	// One rank of four: open, assign shards from the table, decode only
	// the own quarter — the cmd/bpmf-dist startup path per rank.
	b.Run("mmap_own_quarter/ml20m-5pct", func(b *testing.B) {
		var ownEntries int64
		for i := 0; i < b.N; i++ {
			mp, err := sparse.OpenBinary(path)
			if err != nil {
				b.Fatal(err)
			}
			panels := partition.PanelsOf(mp)
			bounds := partition.AssignPanels(panels, 4, partition.CostModel{})
			rowLo, rowHi := bounds[1], bounds[2] // rank 1 of 4
			a := &sparse.CSR{M: csr.M, N: csr.N, RowPtr: make([]int64, csr.M+1)}
			for s := range panels.Lo {
				if panels.Lo[s] >= rowLo && panels.Hi[s] <= rowHi {
					if err := mp.DecodePanelInto(a, s); err != nil {
						b.Fatal(err)
					}
				}
			}
			ownEntries = int64(a.NNZ())
			mp.Close()
		}
		b.ReportMetric(float64(ownEntries), "own_entries")
		reportIngest(b, int(size)/4, int(ownEntries))
	})
}
