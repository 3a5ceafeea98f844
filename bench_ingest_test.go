// Ingestion benchmarks (the ingest_* series of BENCH_kernels.json):
// MatrixMarket parsing — sequential reference vs the chunked parallel
// parser — plus .bcsr shard reading and writing, all on the ml-20m
// 5%-scale synthetic (~1M ratings), the dataset the ISSUE's acceptance
// criterion names. Record with:
//
//	go test -run='^$' -bench=BenchmarkIngest -benchmem . |
//	    go run ./cmd/bench2json -label pr3-ingest -out BENCH_kernels.json
package bpmf_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sched"
	"repro/internal/sparse"
)

var ingestData struct {
	once sync.Once
	csr  *sparse.CSR
	mm   []byte // MatrixMarket rendering
	bcsr []byte // binary shard rendering
}

func ingestSetup(b *testing.B) (*sparse.CSR, []byte, []byte) {
	b.Helper()
	ingestData.once.Do(func() {
		ds := datagen.Generate(datagen.Scaled(datagen.ML20M(42), 0.05))
		var mm, bc bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, ds.R); err != nil {
			panic(err)
		}
		if err := sparse.WriteBinary(&bc, ds.R); err != nil {
			panic(err)
		}
		ingestData.csr = ds.R
		ingestData.mm = mm.Bytes()
		ingestData.bcsr = bc.Bytes()
	})
	return ingestData.csr, ingestData.mm, ingestData.bcsr
}

func reportIngest(b *testing.B, nbytes, entries int) {
	b.SetBytes(int64(nbytes))
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkIngest(b *testing.B) {
	csr, mm, bc := ingestSetup(b)

	b.Run("parse_seq/ml20m-5pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := sparse.ReadMatrixMarket(bytes.NewReader(mm))
			if err != nil {
				b.Fatal(err)
			}
			if a.NNZ() != csr.NNZ() {
				b.Fatal("short parse")
			}
		}
		reportIngest(b, len(mm), csr.NNZ())
	})

	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parse_par/ml20m-5pct/threads=%d", threads), func(b *testing.B) {
			pool := sched.NewPool(threads)
			defer pool.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := sparse.ParseMatrixMarket(mm, pool)
				if err != nil {
					b.Fatal(err)
				}
				if a.NNZ() != csr.NNZ() {
					b.Fatal("short parse")
				}
			}
			reportIngest(b, len(mm), csr.NNZ())
		})
	}

	b.Run("read_bcsr/ml20m-5pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := sparse.ReadBinary(bytes.NewReader(bc))
			if err != nil {
				b.Fatal(err)
			}
			if a.NNZ() != csr.NNZ() {
				b.Fatal("short read")
			}
		}
		reportIngest(b, len(bc), csr.NNZ())
	})

	b.Run("write_bcsr/ml20m-5pct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sparse.WriteBinary(io.Discard, csr); err != nil {
				b.Fatal(err)
			}
		}
		reportIngest(b, len(bc), csr.NNZ())
	})

	b.Run("convert/ml20m-5pct", func(b *testing.B) {
		dir := b.TempDir()
		mmPath := filepath.Join(dir, "in.mtx")
		if err := os.WriteFile(mmPath, mm, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats, err := sparse.Converter{}.Convert(mmPath, filepath.Join(dir, "out.bcsr"))
			if err != nil {
				b.Fatal(err)
			}
			if stats.NNZ != int64(csr.NNZ()) {
				b.Fatal("short convert")
			}
		}
		reportIngest(b, len(mm), csr.NNZ())
	})
}
