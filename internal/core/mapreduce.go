package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"strconv"

	"repro/internal/lsh"
	"repro/internal/mapreduce"
)

// This file is DASC's one MapReduce formulation (§3.3), shared by the
// shipped and sharded drivers:
//
//	stage 1 (Algorithm 1): map each input record to one
//	  (table:signature, index) pair per ensemble table; the grouped
//	  reduce output is the raw per-table signature partition,
//	stage 2 (Algorithm 2): after the driver merges near-duplicate
//	  signatures, each reducer solves one bucket with clusterOneBucket
//	  and emits a (bucketSig, point/label/k) record per point plus one
//	  solver-stats record.
//
// The jobs carry no pointers into the driver's memory: hash parameters
// and the solve configuration travel as the job Conf (Hadoop's JobConf
// analogue), and the rows travel in the records or are read from shards
// by the workers. The factories are registered at package init, so any
// process that imports this package (e.g. cmd/dascworker) can serve the
// jobs, and the same jobs run on mapreduce.Local and over TCP.

// lshTable is one ensemble table's fitted hash parameters.
type lshTable struct {
	Dims       []int
	Thresholds []float64
}

// tablesConf extracts every fitted hasher's wire parameters.
func tablesConf(hashers []*lsh.Hasher) []lshTable {
	out := make([]lshTable, len(hashers))
	for t, h := range hashers {
		out[t] = lshTable{Dims: h.Dimensions(), Thresholds: h.Thresholds()}
	}
	return out
}

// validateTables rejects a stage-1 conf without tables or with a table
// whose dimension and threshold lists disagree.
func validateTables(tables []lshTable) error {
	if len(tables) == 0 {
		return fmt.Errorf("core: lsh conf has no tables")
	}
	for t, tab := range tables {
		if len(tab.Dims) != len(tab.Thresholds) || len(tab.Dims) == 0 {
			return fmt.Errorf("core: lsh conf table %d has %d dims, %d thresholds",
				t, len(tab.Dims), len(tab.Thresholds))
		}
	}
	return nil
}

// hashRow is the stage-1 mapper body of both drivers: hash one row with
// every table's shipped thresholds and emit one (table:signature,
// index) record per table.
func hashRow(tables []lshTable, idx int, row []float64, emit mapreduce.Emit) error {
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, uint32(idx))
	for t, tab := range tables {
		var sig uint64
		for i, dim := range tab.Dims {
			if dim < 0 || dim >= len(row) {
				return fmt.Errorf("hash dimension %d outside vector of %d", dim, len(row))
			}
			if row[dim] > tab.Thresholds[i] {
				sig |= 1 << uint(i)
			}
		}
		emit(encodeSigKey(t, sig), buf)
	}
	return nil
}

// clusterConf is the stage-2 configuration: everything clusterOneBucket
// needs besides the rows. SparseCutoff and Epsilon carry the driver's
// solve-engine policy to remote workers; zero values reproduce the
// dense path exactly. EmbedDim and EmbedCutoff carry the embed policy.
type clusterConf struct {
	N            int
	K            int
	Sigma        float64
	Seed         int64
	SparseCutoff int
	Epsilon      float64
	EmbedDim     int
	EmbedCutoff  int
}

func (c clusterConf) validate() error {
	if c.N < 1 || c.K < 1 || c.Sigma <= 0 || c.EmbedDim < 0 ||
		(c.EmbedDim > 0 && c.EmbedCutoff < 1) {
		return fmt.Errorf("core: cluster conf %+v invalid", c)
	}
	return nil
}

func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// passThrough is the identity map or reduce of both stages: stage 1's
// shuffle does the grouping, and stage 2's buckets are already formed.
func passThrough(key string, value []byte, emit mapreduce.Emit) error {
	emit(key, value)
	return nil
}

func passThroughReduce(key string, values [][]byte, emit mapreduce.Emit) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// emitSolution writes one solved bucket as stage-2 output: a label
// record per point, then the bucket's stats record.
func emitSolution(key string, indices []int, sol BucketSolution, emit mapreduce.Emit) {
	for pos, idx := range indices {
		emit(key, encodeLabel(idx, sol.Labels[pos], sol.K))
	}
	emit(key, encodeBucketStats(sol))
}

// mrRunner is what the shipped and sharded runners share: the executor
// and the counters accumulated across both stages.
type mrRunner struct {
	exec mapreduce.Executor
	ctr  mapreduce.Counters
}

func (*mrRunner) NeedsHasher() bool { return true }

// MapReduceCounters reports the counters accumulated across both
// stages; RunPipeline copies them onto the Result.
func (r *mrRunner) MapReduceCounters() *mapreduce.Counters { return &r.ctr }

// run executes one factory-registered stage: the conf is encoded and
// the job built exactly as a worker process will build it, then run on
// the executor with the plan's spill budget and compression setting.
func (r *mrRunner) run(ctx context.Context, p *Plan, stage, name string, factory mapreduce.JobFactory, conf interface{}, input []mapreduce.Pair) ([]mapreduce.Pair, error) {
	blob, err := gobEncode(conf)
	if err != nil {
		return nil, err
	}
	job, err := factory(blob)
	if err != nil {
		return nil, err
	}
	job.Name = name
	job.Conf = blob
	job.SpillBytes = p.Cfg.SpillBytes
	job.Compress = p.Cfg.Compression
	out, ctr, err := mapreduce.RunWithContext(ctx, r.exec, job, input)
	if err != nil {
		return nil, fmt.Errorf("core: %s stage: %w", stage, err)
	}
	r.ctr.Add(ctr)
	return out, nil
}

// signatures runs stage 1 over the given input records and reassembles
// the signature set.
func (r *mrRunner) signatures(ctx context.Context, p *Plan, name string, factory mapreduce.JobFactory, conf interface{}, input []mapreduce.Pair) (*lsh.SignatureSet, error) {
	pairs, err := r.run(ctx, p, "lsh", name, factory, conf, input)
	if err != nil {
		return nil, err
	}
	return signaturesFromPairs(pairs, p.N, p.Ensemble.Tables())
}

// solve runs stage 2 over one input record per bucket, keyed by the
// bucket signature, and turns the output back into solutions.
func (r *mrRunner) solve(ctx context.Context, p *Plan, part *lsh.Partition, name string, factory mapreduce.JobFactory, conf interface{}, values [][]byte) ([]BucketSolution, error) {
	input := make([]mapreduce.Pair, len(part.Buckets))
	for bi, b := range part.Buckets {
		input[bi] = mapreduce.Pair{Key: bucketKey(b.Signature), Value: values[bi]}
	}
	pairs, err := r.run(ctx, p, "cluster", name, factory, conf, input)
	if err != nil {
		return nil, err
	}
	return solutionsFromLabelPairs(part, pairs, p.N)
}

// bucketKey is a stage-2 record key: the bucket signature in
// fixed-width hex.
func bucketKey(sig uint64) string {
	return fmt.Sprintf("%016x", sig)
}

// encodeSigKey formats a stage-1 record key as "<table>:<signature>"
// with fixed-width hex fields, so the shuffle groups per (table,
// signature) and keys sort in (table, signature) order.
func encodeSigKey(table int, sig uint64) string {
	return fmt.Sprintf("%02x:%016x", table, sig)
}

// decodeSigKey is the inverse of encodeSigKey.
func decodeSigKey(key string) (table int, sig uint64, err error) {
	if len(key) != 19 || key[2] != ':' {
		return 0, 0, fmt.Errorf("core: bad signature key %q", key)
	}
	t, err := strconv.ParseUint(key[:2], 16, 8)
	if err != nil {
		return 0, 0, fmt.Errorf("core: bad table in key %q: %w", key, err)
	}
	sig, err = strconv.ParseUint(key[3:], 16, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("core: bad signature in key %q: %w", key, err)
	}
	return int(t), sig, nil
}

// signaturesFromPairs reassembles the per-point per-table signature set
// from stage-1 output records. Every (table, point) must have exactly
// one record: a missing one would silently hash the point to signature
// 0, so it is an error, as is a duplicate.
func signaturesFromPairs(sigPairs []mapreduce.Pair, n, tables int) (*lsh.SignatureSet, error) {
	sigs := lsh.NewSignatureSet(tables, n)
	seen := make([]bool, tables*n)
	for _, p := range sigPairs {
		t, sig, err := decodeSigKey(p.Key)
		if err != nil {
			return nil, err
		}
		if t >= tables {
			return nil, fmt.Errorf("core: table %d out of range (have %d)", t, tables)
		}
		if len(p.Value) != 4 {
			return nil, fmt.Errorf("core: signature record payload length %d", len(p.Value))
		}
		idx := int(binary.LittleEndian.Uint32(p.Value))
		if idx >= n {
			return nil, fmt.Errorf("core: index %d out of range", idx)
		}
		if seen[t*n+idx] {
			return nil, fmt.Errorf("core: duplicate signature record for point %d in table %d", idx, t)
		}
		seen[t*n+idx] = true
		sigs.Tables[t][idx] = sig
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: no signature record for point %d in table %d", i%n, i/n)
		}
	}
	return sigs, nil
}

// solutionsFromLabelPairs converts stage-2 output records back into
// per-bucket solutions aligned with the partition — the inverse of
// emitSolution. Two record kinds share the stream, both keyed by the
// bucket signature: 12-byte per-point (pointIndex, localLabel, k)
// triples and the per-bucket stats records, which are at least 13
// bytes. Every point needs exactly one label record and every bucket
// exactly one stats record, and a bucket's records must agree on k;
// assembleSolutions then checks k against the plan and the labels
// against k.
func solutionsFromLabelPairs(part *lsh.Partition, pairs []mapreduce.Pair, n int) ([]BucketSolution, error) {
	type slot struct{ bucket, pos int }
	where := make(map[int]slot, n)
	sigOf := make(map[uint64]int, len(part.Buckets))
	sols := make([]BucketSolution, len(part.Buckets))
	labeled := make([][]bool, len(part.Buckets))
	hasStats := make([]bool, len(part.Buckets))
	for bi, b := range part.Buckets {
		sols[bi].Labels = make([]int, len(b.Indices))
		sols[bi].K = -1
		labeled[bi] = make([]bool, len(b.Indices))
		sigOf[b.Signature] = bi
		for pi, idx := range b.Indices {
			where[idx] = slot{bi, pi}
		}
	}
	for _, p := range pairs {
		if len(p.Value) != 12 {
			sig, err := strconv.ParseUint(p.Key, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad stats key %q: %w", p.Key, err)
			}
			bi, ok := sigOf[sig]
			if !ok {
				return nil, fmt.Errorf("core: stats for unknown bucket %x", sig)
			}
			if hasStats[bi] {
				return nil, fmt.Errorf("core: duplicate stats record for bucket %x", sig)
			}
			hasStats[bi] = true
			if err := decodeBucketStats(p.Value, &sols[bi]); err != nil {
				return nil, fmt.Errorf("core: bucket %x: %w", sig, err)
			}
			continue
		}
		idx, local, k := decodeLabel(p.Value)
		s, ok := where[idx]
		if !ok {
			return nil, fmt.Errorf("core: label for out-of-range point %d", idx)
		}
		sig := part.Buckets[s.bucket].Signature
		if labeled[s.bucket][s.pos] {
			return nil, fmt.Errorf("core: bucket %x: duplicate label record for point %d", sig, idx)
		}
		if sols[s.bucket].K >= 0 && sols[s.bucket].K != k {
			return nil, fmt.Errorf("core: bucket %x: label records disagree on k (%d vs %d)", sig, sols[s.bucket].K, k)
		}
		labeled[s.bucket][s.pos] = true
		sols[s.bucket].Labels[s.pos] = local
		sols[s.bucket].K = k
	}
	for bi, b := range part.Buckets {
		for pos, ok := range labeled[bi] {
			if !ok {
				return nil, fmt.Errorf("core: bucket %x: no label record for point %d", b.Signature, b.Indices[pos])
			}
		}
		if !hasStats[bi] {
			return nil, fmt.Errorf("core: bucket %x: no stats record", b.Signature)
		}
	}
	return sols, nil
}

// bucketStatsKind opens a stats record: 'S', a zero version byte,
// uvarint NNZ, 8-byte LE Fill bits, uvarint SolveNanos, uvarint
// GramBytes, then the solver name. The two fixed leading bytes plus
// the 8-byte float keep every stats record at least 13 bytes, so it can
// never be taken for a 12-byte label.
const bucketStatsKind = 'S'

// encodeBucketStats packs a solution's solver accounting into one
// stage-2 output record.
func encodeBucketStats(s BucketSolution) []byte {
	buf := make([]byte, 0, 2+3*binary.MaxVarintLen64+8+len(s.Solver))
	buf = append(buf, bucketStatsKind, 0)
	buf = binary.AppendUvarint(buf, uint64(s.NNZ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Fill))
	buf = binary.AppendUvarint(buf, uint64(s.SolveNanos))
	buf = binary.AppendUvarint(buf, uint64(s.GramBytes))
	return append(buf, s.Solver...)
}

// decodeBucketStats unpacks a stats record into the solution's
// accounting fields, leaving Labels and K untouched.
func decodeBucketStats(buf []byte, s *BucketSolution) error {
	if len(buf) < 2 || buf[0] != bucketStatsKind || buf[1] != 0 {
		return fmt.Errorf("core: bad stats record")
	}
	rest := buf[2:]
	nnz, n := binary.Uvarint(rest)
	if n <= 0 || len(rest[n:]) < 8 {
		return fmt.Errorf("core: truncated stats record")
	}
	rest = rest[n:]
	fill := math.Float64frombits(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]
	nanos, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("core: truncated stats record")
	}
	rest = rest[n:]
	gram, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("core: truncated stats record")
	}
	s.NNZ = int64(nnz)
	s.Fill = fill
	s.SolveNanos = int64(nanos)
	s.GramBytes = int64(gram)
	s.Solver = string(rest[n:])
	return nil
}

// packIndices encodes a bucket index list as a uvarint count followed
// by zigzag-varint deltas. Bucket index lists are sorted ascending, so
// the deltas are small positive integers and the record shrinks toward
// one byte per point.
func packIndices(indices []int) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, 1+2*len(indices)), uint64(len(indices)))
	prev := 0
	for _, idx := range indices {
		buf = binary.AppendVarint(buf, int64(idx-prev))
		prev = idx
	}
	return buf
}

// unpackIndices is the inverse of packIndices. Every decoded index must
// be non-negative and fit int32.
func unpackIndices(buf []byte) ([]int, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("core: bad index count")
	}
	rest := buf[n:]
	// Each delta occupies at least one byte, so the declared count bounds
	// the allocation before it happens.
	if count > uint64(len(rest)) {
		return nil, fmt.Errorf("core: index count %d exceeds payload %d", count, len(rest))
	}
	out := make([]int, count)
	prev := int64(0)
	for i := range out {
		d, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("core: truncated index list")
		}
		rest = rest[n:]
		prev += d
		if prev < 0 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("core: index %d out of range", prev)
		}
		out[i] = int(prev)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after index list", len(rest))
	}
	return out, nil
}

// encodeLabel packs (pointIndex, localLabel, bucketK).
func encodeLabel(idx, label, k int) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf[0:], uint32(idx))
	binary.LittleEndian.PutUint32(buf[4:], uint32(label))
	binary.LittleEndian.PutUint32(buf[8:], uint32(k))
	return buf
}

func decodeLabel(buf []byte) (idx, label, k int) {
	return int(binary.LittleEndian.Uint32(buf[0:])),
		int(binary.LittleEndian.Uint32(buf[4:])),
		int(binary.LittleEndian.Uint32(buf[8:]))
}
