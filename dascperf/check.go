package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
)

// checkResult is the output check every driver call must pass: one
// label per point, ids in [0, Clusters), and Clusters equal to the sum
// of the per-bucket K over a partition that covers every point.
func checkResult(res *core.Result, n int) error {
	if res == nil {
		return fmt.Errorf("nil result")
	}
	if len(res.Labels) != n {
		return fmt.Errorf("%d labels for %d points", len(res.Labels), n)
	}
	if res.Clusters < 1 {
		return fmt.Errorf("%d clusters", res.Clusters)
	}
	for i, l := range res.Labels {
		if l < 0 || l >= res.Clusters {
			return fmt.Errorf("label %d of point %d outside [0,%d)", l, i, res.Clusters)
		}
	}
	sumK, sumSize := 0, 0
	for _, b := range res.Buckets {
		sumK += b.K
		sumSize += b.Size
	}
	if sumK != res.Clusters {
		return fmt.Errorf("Clusters=%d but buckets sum to K=%d", res.Clusters, sumK)
	}
	if sumSize != n {
		return fmt.Errorf("buckets hold %d points of %d", sumSize, n)
	}
	return nil
}

// labelsDigest fingerprints a labeling, so repetitions and drivers can
// be compared without keeping every label slice.
func labelsDigest(labels []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		_, _ = h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pairRecall is the fraction of same-class point pairs that the
// clustering also puts in one cluster. It is the exact value of the
// sampled estimate dascbench -scale reports, computed from the
// class x cluster contingency counts.
func pairRecall(truth, pred []int) float64 {
	type cell struct{ t, p int }
	joint := make(map[cell]int64)
	class := make(map[int]int64)
	for i := range truth {
		joint[cell{truth[i], pred[i]}]++
		class[truth[i]]++
	}
	var same, hit int64
	for _, c := range class {
		same += c * (c - 1) / 2
	}
	for _, c := range joint {
		hit += c * (c - 1) / 2
	}
	if same == 0 {
		return 0
	}
	return float64(hit) / float64(same)
}

// accuracy returns NMI and pair recall against the ground truth.
func accuracy(truth, pred []int) (nmi, recall float64, err error) {
	nmi, err = metrics.NMI(truth, pred)
	if err != nil {
		return 0, 0, err
	}
	return nmi, pairRecall(truth, pred), nil
}

// bucketSummary is the skew and critical-path view of one Result.
type bucketSummary struct {
	Count    int     `json:"count"`
	MaxSize  int     `json:"max_size"`
	MaxShare float64 `json:"max_share"`
	P50      int     `json:"p50"`
	P99      int     `json:"p99"`
	Gini     float64 `json:"gini"`
	// SolveSum is the summed per-bucket solve time.
	SolveSum float64 `json:"solve_sum_s"`
	// Critical is the bucket with the longest solve.
	Critical criticalBucket `json:"critical"`
	// LargestK / LargestSolver / LargestSolve describe the largest
	// bucket, which is usually but not always the critical one.
	LargestK      int     `json:"largest_k"`
	LargestSolver string  `json:"largest_solver"`
	LargestSolve  float64 `json:"largest_solve_s"`
	// Solvers maps solver name to bucket count and summed solve time.
	SolverBuckets map[string]int     `json:"solver_buckets"`
	SolverSeconds map[string]float64 `json:"solver_s"`
	GramMB        float64            `json:"gram_mb"`
	// CallSeconds is the wall time of the call summarized.
	CallSeconds float64 `json:"call_s"`
}

type criticalBucket struct {
	Signature uint64  `json:"signature"`
	Size      int     `json:"size"`
	K         int     `json:"k"`
	Solver    string  `json:"solver"`
	Seconds   float64 `json:"solve_s"`
}

// summarizeBuckets computes bucket-size skew and the solve critical
// path from Result.Buckets.
func summarizeBuckets(res *core.Result, n int) bucketSummary {
	s := bucketSummary{
		Count:         len(res.Buckets),
		SolverBuckets: map[string]int{},
		SolverSeconds: map[string]float64{},
		GramMB:        float64(res.GramBytes) / (1 << 20),
	}
	sizes := make([]int, len(res.Buckets))
	largest := -1
	for i, b := range res.Buckets {
		sizes[i] = b.Size
		sec := float64(b.SolveNanos) / 1e9
		s.SolveSum += sec
		s.SolverBuckets[b.Solver]++
		s.SolverSeconds[b.Solver] += sec
		if largest < 0 || b.Size > res.Buckets[largest].Size {
			largest = i
		}
		if s.Critical.Solver == "" || sec > s.Critical.Seconds {
			s.Critical = criticalBucket{Signature: b.Signature, Size: b.Size, K: b.K, Solver: b.Solver, Seconds: sec}
		}
	}
	if largest >= 0 {
		b := res.Buckets[largest]
		s.MaxSize, s.LargestK, s.LargestSolver = b.Size, b.K, b.Solver
		s.LargestSolve = float64(b.SolveNanos) / 1e9
		s.MaxShare = float64(b.Size) / float64(n)
	}
	sort.Ints(sizes)
	s.P50 = nearestRank(sizes, 0.50)
	s.P99 = nearestRank(sizes, 0.99)
	s.Gini = gini(sizes)
	return s
}

// nearestRank is the nearest-rank percentile of sorted values.
func nearestRank(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	return sorted[r]
}

// gini is the Gini coefficient of sorted bucket sizes: 0 when every
// bucket has the same size, approaching 1 when one bucket holds all.
func gini(sorted []int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	var weighted float64
	total := 0
	for i, v := range sorted {
		weighted += float64(i+1) * float64(v)
		total += v
	}
	if total == 0 {
		return 0
	}
	return 2*weighted/(float64(n)*float64(total)) - float64(n+1)/float64(n)
}

// median returns the median of xs (the mean of the middle two for an
// even count), 0 for none; xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
