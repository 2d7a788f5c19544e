package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func matrixOfSize(r, c int) *matrix.Dense { return matrix.NewDense(r, c) }

func TestClusterMapReduceMatchesLocalDriver(t *testing.T) {
	l := mixture(t, 180, 12, 3, 0.03, 20)
	direct, err := Cluster(l.Points, Config{K: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	viaMR, err := ClusterMapReduceShipped(l.Points, Config{K: 3, Seed: 21}, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}
	// Same partition, same per-bucket seeds: identical partitions.
	agree, err := metrics.Accuracy(direct.Labels, viaMR.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 1 {
		t.Fatalf("MapReduce driver disagrees with local driver: overlap %v", agree)
	}
	if direct.GramBytes != viaMR.GramBytes {
		t.Fatalf("GramBytes differ: %d vs %d", direct.GramBytes, viaMR.GramBytes)
	}
	if direct.Clusters != viaMR.Clusters {
		t.Fatalf("cluster counts differ: %d vs %d", direct.Clusters, viaMR.Clusters)
	}
}

func TestClusterMapReduceAccuracy(t *testing.T) {
	l := mixture(t, 160, 16, 4, 0.02, 22)
	res, err := ClusterMapReduceShipped(l.Points, Config{K: 4, Seed: 23}, &mapreduce.Local{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestClusterMapReduceOverTCP(t *testing.T) {
	l := mixture(t, 100, 8, 2, 0.03, 24)
	// The jobs are factory-registered at package init, so the
	// in-process TCP workers rebuild them from the shipped conf — the
	// same way Hadoop workers share the job jar.
	m, err := mapreduce.NewMaster("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := mapreduce.RunWorker(m.Addr()); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not join")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := ClusterMapReduceShipped(l.Points, Config{K: 2, Seed: 25}, m)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(l.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("TCP accuracy = %v", acc)
	}
	// The driver aggregates executor counters from both stages onto the
	// result; over TCP that includes real wire traffic.
	if res.MapReduce == nil {
		t.Fatal("Result.MapReduce not populated by the MapReduce driver")
	}
	if res.MapReduce.MapTasks == 0 || res.MapReduce.ReduceTasks == 0 {
		t.Fatalf("stage counters not aggregated: %+v", res.MapReduce)
	}
	if res.MapReduce.WireBytesOut <= 0 || res.MapReduce.WireBytesIn <= 0 {
		t.Fatalf("TCP wire counters not aggregated: %+v", res.MapReduce)
	}
	m.Close()
	wg.Wait()
}

// TestIndexCodecRoundTrip pins the stage-2 index record's exact round
// trip, sorted and unsorted.
func TestIndexCodecRoundTrip(t *testing.T) {
	for _, in := range [][]int{
		nil,
		{0},
		{5, 6, 7, 8},
		{100000, 3, 99, 2_000_000_000},
		{7, 7, 7},
	} {
		out, err := unpackIndices(packIndices(in))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(in) != fmt.Sprint(out) {
			t.Fatalf("round trip: %v -> %v", in, out)
		}
	}
}

func TestLabelCodecRoundTrip(t *testing.T) {
	idx, label, k := decodeLabel(encodeLabel(7, 3, 11))
	if idx != 7 || label != 3 || k != 11 {
		t.Fatalf("round trip: %d %d %d", idx, label, k)
	}
}

// TestStageOutputsMustCoverEveryPoint feeds malformed stage outputs to
// the driver-side reassembly: a missing, duplicate or inconsistent
// record must be an error naming the bucket or point, never a silent
// label 0, signature 0 or out-of-range cluster id.
func TestStageOutputsMustCoverEveryPoint(t *testing.T) {
	// Three points in two buckets with K=3: bucket 1 plans 2 clusters,
	// bucket 2 plans 1.
	part := &lsh.Partition{Buckets: []lsh.Bucket{
		{Signature: 1, Indices: []int{0, 2}},
		{Signature: 2, Indices: []int{1}},
	}}
	const n, k = 3, 3
	label := func(sig uint64, idx, local, k int) mapreduce.Pair {
		return mapreduce.Pair{Key: bucketKey(sig), Value: encodeLabel(idx, local, k)}
	}
	stats := func(sig uint64) mapreduce.Pair {
		return mapreduce.Pair{Key: bucketKey(sig), Value: encodeBucketStats(BucketSolution{Solver: SolverTrivial})}
	}
	good := []mapreduce.Pair{label(1, 0, 1, 2), label(1, 2, 0, 2), stats(1), label(2, 1, 0, 1), stats(2)}
	without := func(i int) []mapreduce.Pair {
		return append(append([]mapreduce.Pair(nil), good[:i]...), good[i+1:]...)
	}
	with := func(extra ...mapreduce.Pair) []mapreduce.Pair {
		return append(append([]mapreduce.Pair(nil), good...), extra...)
	}

	labelCases := []struct {
		name  string
		pairs []mapreduce.Pair
		want  string // error substring; "" means the output is well formed
	}{
		{"well formed", good, ""},
		{"missing label", without(1), "no label record for point 2"},
		{"duplicate label", with(label(1, 2, 1, 2)), "duplicate label record for point 2"},
		{"label outside K", []mapreduce.Pair{label(1, 0, 1, 2), label(1, 2, 7, 2), stats(1), label(2, 1, 0, 1), stats(2)}, "local label 7"},
		{"k disagrees", []mapreduce.Pair{label(1, 0, 1, 2), label(1, 2, 0, 3), stats(1), label(2, 1, 0, 1), stats(2)}, "disagree on k"},
		{"k off plan", []mapreduce.Pair{label(1, 0, 1, 3), label(1, 2, 0, 3), stats(1), label(2, 1, 0, 1), stats(2)}, "planned 2"},
		{"missing stats", without(4), "bucket 2: no stats record"},
		{"duplicate stats", with(stats(1)), "duplicate stats record for bucket 1"},
		{"unknown point", with(label(2, 9, 0, 1)), "point 9"},
	}
	for _, c := range labelCases {
		sols, err := solutionsFromLabelPairs(part, c.pairs, n)
		if err == nil {
			var res *Result
			res, err = assembleSolutions(part, sols, n, k)
			if err == nil && c.want == "" && fmt.Sprint(res.Labels) != "[1 2 0]" {
				t.Errorf("%s: labels %v, want [1 2 0]", c.name, res.Labels)
			}
		}
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}

	sig := func(table, idx int) mapreduce.Pair {
		v := make([]byte, 4)
		binary.LittleEndian.PutUint32(v, uint32(idx))
		return mapreduce.Pair{Key: encodeSigKey(table, 5), Value: v}
	}
	sigCases := []struct {
		name  string
		pairs []mapreduce.Pair
		want  string
	}{
		{"well formed", []mapreduce.Pair{sig(0, 0), sig(0, 1), sig(0, 2), sig(1, 0), sig(1, 1), sig(1, 2)}, ""},
		{"missing", []mapreduce.Pair{sig(0, 0), sig(0, 1), sig(0, 2), sig(1, 0), sig(1, 2)}, "point 1 in table 1"},
		{"duplicate", []mapreduce.Pair{sig(0, 0), sig(0, 1), sig(0, 2), sig(0, 2), sig(1, 0), sig(1, 1), sig(1, 2)}, "duplicate signature record for point 2"},
		{"short value", []mapreduce.Pair{{Key: encodeSigKey(0, 5), Value: []byte{1}}}, "payload length 1"},
	}
	for _, c := range sigCases {
		_, err := signaturesFromPairs(c.pairs, n, 2)
		if c.want == "" {
			if err != nil {
				t.Errorf("signatures %s: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("signatures %s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
