package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// TestCompressionLabelIdentityAcrossDrivers is the PR's central
// contract: Config.Compression changes bytes moved and CPU spent in the
// codec, never labels. Every driver, at every spill budget, must
// reproduce the uncompressed in-memory labels bit for bit.
func TestCompressionLabelIdentityAcrossDrivers(t *testing.T) {
	l := mixture(t, 240, 10, 3, 0.03, 51)
	base, err := Cluster(l.Points, Config{K: 3, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	dir := writeShardDir(t, l.Points, 64)

	check := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range base.Labels {
			if res.Labels[i] != base.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, uncompressed %d", name, i, res.Labels[i], base.Labels[i])
			}
		}
	}

	for _, spill := range []int64{1, 64, 1 << 20} {
		cfg := Config{K: 3, Seed: 52, Compression: true, SpillBytes: spill}

		sh, err := ClusterMapReduceShipped(l.Points, cfg, &mapreduce.Local{})
		check(fmt.Sprintf("shipped/local spill=%d", spill), sh, err)

		scfg := cfg
		scfg.FitSample = 240
		shd, err := ClusterMapReduceSharded(dir, scfg, &mapreduce.Local{})
		check(fmt.Sprintf("sharded/local spill=%d", spill), shd, err)
		if shd.MapReduce == nil || shd.MapReduce.ShardReadBytes == 0 {
			t.Fatalf("sharded spill=%d: shard read accounting missing", spill)
		}
		if shd.MapReduce.ShardReadOps == 0 {
			t.Fatalf("sharded spill=%d: no shard read ops recorded", spill)
		}
	}

	// And with compression off everything must still match.
	off, err := ClusterMapReduceShipped(l.Points, Config{K: 3, Seed: 52}, &mapreduce.Local{})
	check("shipped/local compression=off", off, err)
}

// TestCompressionLabelIdentityOverTCP repeats the identity over real
// sockets, where Compression additionally deflates wire frames in both
// directions.
func TestCompressionLabelIdentityOverTCP(t *testing.T) {
	l := mixture(t, 200, 10, 3, 0.03, 61)
	base, err := Cluster(l.Points, Config{K: 3, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}

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

	cfg := Config{K: 3, Seed: 62, Compression: true, SpillBytes: 64}
	res, err := ClusterMapReduceShipped(l.Points, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Labels {
		if res.Labels[i] != base.Labels[i] {
			t.Fatalf("label[%d] = %d, uncompressed %d", i, res.Labels[i], base.Labels[i])
		}
	}
	if res.MapReduce == nil || res.MapReduce.SpillBytes == 0 {
		t.Fatal("expected spill counters over TCP")
	}
	m.Close()
	wg.Wait()
}

// TestCompressionEmbedShippedIdentity covers the embedded bucket
// records under Compression: same labels with it on and off, and the
// same record bytes, since Compression only switches flate on wire
// frames and spill runs and never the record encoding.
func TestCompressionEmbedShippedIdentity(t *testing.T) {
	l := mixture(t, 300, 10, 3, 0.03, 17)
	cfg := Config{K: 3, Seed: 5, EmbedDim: 16, EmbedCutoff: 40}

	off, err := ClusterMapReduceShipped(l.Points, cfg, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}
	on := cfg
	on.Compression = true
	res, err := ClusterMapReduceShipped(l.Points, on, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range off.Labels {
		if res.Labels[i] != off.Labels[i] {
			t.Fatalf("label[%d] = %d, uncompressed %d", i, res.Labels[i], off.Labels[i])
		}
	}
	if off.MapReduce == nil || res.MapReduce == nil {
		t.Fatal("missing MapReduce counters")
	}
	if off.MapReduce.EmbedBytes == 0 {
		t.Skip("no buckets embedded at this size; nothing to compare")
	}
	if res.MapReduce.EmbedBytes != off.MapReduce.EmbedBytes {
		t.Fatalf("embed records take %d bytes with Compression, %d without",
			res.MapReduce.EmbedBytes, off.MapReduce.EmbedBytes)
	}
}

// TestPackedIndicesCodec pins the stage-2 index record's size and its
// rejection of malformed input: sorted runs — the common bucket shape —
// cost one byte per index.
func TestPackedIndicesCodec(t *testing.T) {
	sorted := make([]int, 500)
	for i := range sorted {
		sorted[i] = 1000 + i
	}
	if got := len(packIndices(sorted)); got > len(sorted)+4 {
		t.Fatalf("packed sorted indices take %d bytes for %d indices", got, len(sorted))
	}

	for name, buf := range map[string][]byte{
		"trailing garbage": append(packIndices([]int{1, 2}), 0),
		"count lies":       {200},
		"empty varint":     {0x80},
		"negative index":   packIndices([]int{-1}),
		"index overflow":   packIndices([]int{1 << 31}),
	} {
		if _, err := unpackIndices(buf); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestPackedStatsCodec pins the 'S' stats record's ≥13-byte floor,
// which keeps it disjoint from 12-byte labels, and its rejection of
// malformed input.
func TestPackedStatsCodec(t *testing.T) {
	// Zero-valued stats with an empty solver is the smallest record; it
	// must still clear 12 bytes.
	if min := encodeBucketStats(BucketSolution{}); len(min) <= 12 {
		t.Fatalf("minimal stats record is %d bytes", len(min))
	}

	s := BucketSolution{NNZ: 12345, Fill: 0.625, SolveNanos: 1 << 40, GramBytes: 9999, Solver: "dense"}
	for name, buf := range map[string][]byte{
		"empty":      {},
		"wrong kind": {'X', 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
		"bad ver":    {'S', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
		"truncated":  encodeBucketStats(s)[:6],
	} {
		var tmp BucketSolution
		if err := decodeBucketStats(buf, &tmp); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
