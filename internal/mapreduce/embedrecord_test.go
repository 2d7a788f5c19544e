package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestEmbedBucketRoundTrip pins the bucket record codec: every encoded
// record of either kind decodes back to its kind and bitwise-identical
// indices and rows, including non-finite and signed-zero payloads and
// unsorted indices, and sorted indices cost about a byte each.
func TestEmbedBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ n, dim int }{
		{1, 2}, {3, 8}, {64, 16}, {257, 6},
	}
	for _, kind := range []byte{EmbedBucketKind, RawBucketKind} {
		for _, s := range shapes {
			indices := make([]int, s.n)
			rows := make([]float64, s.n*s.dim)
			for i := range indices {
				indices[i] = int(rng.Int31())
			}
			for i := range rows {
				rows[i] = rng.NormFloat64()
			}
			rows[0] = math.Copysign(0, -1)
			if len(rows) > 1 {
				rows[1] = math.Inf(1)
			}
			rec := AppendBucketRecord(nil, kind, indices, s.dim, rows)
			gotKind, gotIdx, gotDim, gotRows, err := ParseBucketRecord(rec)
			if err != nil {
				t.Fatalf("%q %dx%d: %v", kind, s.n, s.dim, err)
			}
			if gotKind != kind || gotDim != s.dim || len(gotIdx) != s.n || len(gotRows) != len(rows) {
				t.Fatalf("%q %dx%d decoded as %q %d x %d (%d rows)", kind, s.n, s.dim, gotKind, len(gotIdx), gotDim, len(gotRows))
			}
			for i := range indices {
				if gotIdx[i] != indices[i] {
					t.Fatalf("index %d = %d, want %d", i, gotIdx[i], indices[i])
				}
			}
			for i := range rows {
				if math.Float64bits(gotRows[i]) != math.Float64bits(rows[i]) {
					t.Fatalf("row value %d = %x, want %x", i, math.Float64bits(gotRows[i]), math.Float64bits(rows[i]))
				}
			}
		}
	}

	sorted := []int{3, 10, 11, 12, 40, 41, 100}
	rec := AppendBucketRecord(nil, EmbedBucketKind, sorted, 1, make([]float64, len(sorted)))
	if idxBytes := len(rec) - 3 - 8*len(sorted); idxBytes != len(sorted) {
		t.Fatalf("sorted small-delta indices took %d bytes, want one each (%d)", idxBytes, len(sorted))
	}
}

// TestEmbedBucketAppendsInPlace verifies Append semantics: the record
// extends dst without clobbering what is already there.
func TestEmbedBucketAppendsInPlace(t *testing.T) {
	prefix := []byte{1, 2, 3}
	rec := AppendBucketRecord(append([]byte(nil), prefix...), EmbedBucketKind, []int{7}, 2, []float64{0.5, -0.5})
	if string(rec[:3]) != string(prefix) {
		t.Fatalf("prefix clobbered: %v", rec[:3])
	}
	if _, _, _, _, err := ParseBucketRecord(rec[3:]); err != nil {
		t.Fatalf("suffix did not parse: %v", err)
	}
}

// TestParseEmbedBucketRejectsMalformed walks the failure surface:
// unknown kind, truncation at every byte, declared shapes that do not
// match the payload, indices outside int32, and trailing garbage.
func TestParseEmbedBucketRejectsMalformed(t *testing.T) {
	good := AppendBucketRecord(nil, EmbedBucketKind, []int{4, 9}, 3, []float64{1, 2, 3, 4, 5, 6})
	if _, _, _, _, err := ParseBucketRecord(good); err != nil {
		t.Fatalf("control record: %v", err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"unknown kind":   append([]byte{'X'}, good[1:]...),
		"trailing":       append(append([]byte(nil), good...), 0),
		"zero points":    AppendBucketRecord(nil, EmbedBucketKind, nil, 3, nil),
		"zero dim":       AppendBucketRecord(nil, RawBucketKind, []int{1}, 0, nil),
		"negative index": AppendBucketRecord(nil, RawBucketKind, []int{-1}, 1, []float64{0}),
		"index overflow": AppendBucketRecord(nil, RawBucketKind, []int{math.MaxInt32 + 1}, 1, []float64{0}),
	}
	for cut := 0; cut < len(good); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	for name, buf := range cases {
		if _, _, _, _, err := ParseBucketRecord(buf); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
