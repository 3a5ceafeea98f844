package sparse

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dupMM rates the (1,1) pair three times, in this file order: 1.0,
// then 5.0, then 0.5.
const dupMM = `%%MatrixMarket matrix coordinate real general
2 3 5
1 1 1.0
1 2 2.0
1 1 5.0
2 3 4.0
1 1 0.5
`

// TestConverterDedupSumIsDefault pins the historical duplicate
// semantics: a Converter's zero value sums duplicate (row, col)
// entries, exactly as COO.ToCSR and the MatrixMarket reader always
// have.
func TestConverterDedupSumIsDefault(t *testing.T) {
	dir := t.TempDir()
	mm := filepath.Join(dir, "dup.mtx")
	if err := os.WriteFile(mm, []byte(dupMM), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "dup.bcsr")
	stats, err := Converter{}.Convert(mm, out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NNZ != 3 {
		t.Fatalf("want 3 post-dedup entries, got %d", stats.NNZ)
	}
	a, err := Load(out)
	if err != nil {
		t.Fatal(err)
	}
	want := csrOf(2, 3,
		[3]float64{0, 0, 1.0 + 5.0 + 0.5},
		[3]float64{0, 1, 2.0},
		[3]float64{1, 2, 4.0})
	if !Equal(want, a) {
		t.Fatalf("DedupSum: (0,0) = %g, want the sum 6.5", a.Val[0])
	}
}

// TestConverterDedupLast checks the compaction policy: the value that
// appeared last in stream order wins outright.
func TestConverterDedupLast(t *testing.T) {
	dir := t.TempDir()
	mm := filepath.Join(dir, "dup.mtx")
	if err := os.WriteFile(mm, []byte(dupMM), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "dup-last.bcsr")
	stats, err := Converter{Dedup: DedupLast}.Convert(mm, out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NNZ != 3 {
		t.Fatalf("want 3 post-dedup entries, got %d", stats.NNZ)
	}
	a, err := Load(out)
	if err != nil {
		t.Fatal(err)
	}
	want := csrOf(2, 3,
		[3]float64{0, 0, 0.5},
		[3]float64{0, 1, 2.0},
		[3]float64{1, 2, 4.0})
	if !Equal(want, a) {
		t.Fatalf("DedupLast: (0,0) = %g, want the last-written 0.5", a.Val[0])
	}
}

// sliceStream adapts an entry slice to the EntryStream contract.
func sliceStream(es []Entry) EntryStream {
	return func(visit func(Entry) error) error {
		for _, e := range es {
			if err := visit(e); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestConvertEntriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	es := []Entry{
		{Row: 0, Col: 1, Val: 2},
		{Row: 3, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 7}, // re-rated: must win under DedupLast
		{Row: 2, Col: 2, Val: 4},
	}
	out := filepath.Join(dir, "entries.bcsr")
	stats, err := Converter{Dedup: DedupLast, ShardNNZ: 2}.ConvertEntries(4, 3, sliceStream(es), out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.M != 4 || stats.N != 3 || stats.NNZ != 3 {
		t.Fatalf("stats %+v", stats)
	}
	a, err := Load(out)
	if err != nil {
		t.Fatal(err)
	}
	want := csrOf(4, 3,
		[3]float64{0, 1, 7},
		[3]float64{2, 2, 4},
		[3]float64{3, 0, 1})
	if !Equal(want, a) {
		t.Fatal("ConvertEntries round trip differs")
	}
}

func TestConvertEntriesRejects(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bad.bcsr")
	cases := map[string]struct {
		m, n   int
		stream EntryStream
		want   string
	}{
		"zero dims":  {0, 3, sliceStream(nil), "positive dimensions"},
		"row range":  {2, 2, sliceStream([]Entry{{Row: 2, Col: 0, Val: 1}}), "outside"},
		"col range":  {2, 2, sliceStream([]Entry{{Row: 0, Col: -1, Val: 1}}), "outside"},
		"non-finite": {2, 2, sliceStream([]Entry{{Row: 0, Col: 0, Val: math.NaN()}}), "non-finite"},
	}
	for name, tc := range cases {
		_, err := Converter{}.ConvertEntries(tc.m, tc.n, tc.stream, out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", name, err, tc.want)
		}
	}
}

// TestConvertEntriesUnstableStream: a source that yields different rows
// on its second pass (the re-stream contract broken) must surface as an
// error, not a bad shard index.
func TestConvertEntriesUnstableStream(t *testing.T) {
	dir := t.TempDir()
	pass := 0
	stream := func(visit func(Entry) error) error {
		pass++
		if pass == 1 {
			return visit(Entry{Row: 0, Col: 0, Val: 1})
		}
		return visit(Entry{Row: 5, Col: 0, Val: 1})
	}
	_, err := Converter{}.ConvertEntries(2, 2, stream, filepath.Join(dir, "x.bcsr"))
	if err == nil || !strings.Contains(err.Error(), "counting pass") {
		t.Fatalf("unstable stream not rejected: %v", err)
	}
}
