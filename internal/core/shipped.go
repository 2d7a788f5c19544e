package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/embed"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// This file is the shipped driver: the two stages of mapreduce.go with
// every input row travelling inside the records (HDFS's input splits
// analogue), so the executor's workers may live in other OS processes.
// Stage 1 records carry one point's vector; stage 2 records carry one
// bucket's rows as a mapreduce bucket record — raw vectors ('B'), or,
// for buckets the embed policy claims, rows the driver already pushed
// through the kernel feature map ('E').

// Names of the factory-registered shipped jobs.
const (
	ShippedHashJobName  = "dasc/shipped-lsh"
	ShippedSolveJobName = "dasc/shipped-cluster"
)

func init() {
	mapreduce.RegisterFactory(ShippedHashJobName, newShippedHashJob)
	mapreduce.RegisterFactory(ShippedSolveJobName, newShippedSolveJob)
}

// lshConf is the shipped stage-1 configuration: every table's fitted
// hash parameters, so a remote worker can compute the full signature
// set.
type lshConf struct {
	Tables []lshTable
}

// newShippedHashJob rebuilds stage 1 from its configuration: the mapper
// decodes each record's vector and hashes it with every table's shipped
// thresholds; the reducer is the identity grouping.
func newShippedHashJob(conf []byte) (*mapreduce.Job, error) {
	var c lshConf
	if err := gobDecode(conf, &c); err != nil {
		return nil, fmt.Errorf("core: lsh conf: %w", err)
	}
	if err := validateTables(c.Tables); err != nil {
		return nil, err
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			idx, err := strconv.Atoi(key)
			if err != nil {
				return fmt.Errorf("bad point index %q: %w", key, err)
			}
			vec, err := decodeVector(value)
			if err != nil {
				return err
			}
			return hashRow(c.Tables, idx, vec, emit)
		},
		Reduce: passThroughReduce,
	}, nil
}

// newShippedSolveJob rebuilds stage 2: each reduce value is one
// bucket record; the reducer solves a raw bucket with clusterOneBucket
// and an embedded one with clusterEmbeddedShippedBucket.
func newShippedSolveJob(conf []byte) (*mapreduce.Job, error) {
	var c clusterConf
	if err := gobDecode(conf, &c); err != nil {
		return nil, fmt.Errorf("core: cluster conf: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map:         passThrough,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			var scratch []float64
			for _, v := range values {
				kind, indices, dim, rows, err := mapreduce.ParseBucketRecord(v)
				if err != nil {
					return err
				}
				pts, err := matrix.NewDenseData(len(indices), dim, rows)
				if err != nil {
					return err
				}
				var sol BucketSolution
				if kind == mapreduce.EmbedBucketKind {
					sol, err = clusterEmbeddedShippedBucket(pts, indices, c)
				} else {
					sol, err = clusterOneBucket(pts, iota(len(indices)), indices, c, nil, &scratch)
				}
				if err != nil {
					return err
				}
				emitSolution(key, indices, sol, emit)
			}
			return nil
		},
	}, nil
}

// clusterEmbeddedShippedBucket is the reduce half of the embedded
// solve: run k-means on the d′-dim rows the driver embedded map-side,
// reporting the same stats the local engine's embedded path does. The
// feature map never travels — only its output — so the worker needs no
// kernel, no Gram scratch, and no eigensolver, and it cannot recompute
// the rows, which is why this solve is not clusterOneBucket.
func clusterEmbeddedShippedBucket(emb *matrix.Dense, indices []int, c clusterConf) (BucketSolution, error) {
	ni, dim := emb.Rows(), emb.Cols()
	ki := BucketK(c.K, ni, c.N)
	if ki <= 1 || ki >= ni {
		// The driver only ships embedded records for 1 < ki < ni; anything
		// else means the record and the configuration disagree.
		return BucketSolution{}, fmt.Errorf("embedded bucket of %d points plans %d clusters", ni, ki)
	}
	start := time.Now()
	res, err := spectral.ClusterEmbeddedRows(emb, spectral.Config{K: ki, Seed: c.Seed + int64(indices[0])})
	if err != nil {
		return BucketSolution{}, fmt.Errorf("embedded bucket: %w", err)
	}
	return BucketSolution{
		Labels: res.Labels, K: ki,
		Solver:     spectral.SolverEmbedded,
		NNZ:        int64(ni) * int64(dim),
		Fill:       float64(dim) / float64(ni),
		SolveNanos: time.Since(start).Nanoseconds(),
		GramBytes:  embed.Bytes(ni, dim),
	}, nil
}

// encodeVector packs a float64 vector little-endian.
func encodeVector(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	return buf
}

func decodeVector(buf []byte) ([]float64, error) {
	if len(buf) == 0 || len(buf)%8 != 0 {
		return nil, fmt.Errorf("core: vector payload length %d", len(buf))
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// ClusterMapReduceShipped runs DASC as the paper's two MapReduce stages
// (§3.3) on the given executor, with all data shipped through the
// records, so the executor's workers may live in other OS processes
// (start them with cmd/dascworker); mapreduce.Local runs the same jobs
// in process.
func ClusterMapReduceShipped(points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return ClusterMapReduceShippedContext(context.Background(), points, cfg, exec)
}

// ClusterMapReduceShippedContext is ClusterMapReduceShipped with
// cancellation: the context is threaded into the executor, so executors
// implementing mapreduce.ContextExecutor (Local and the TCP Master)
// abort in-flight map and reduce work cooperatively.
func ClusterMapReduceShippedContext(ctx context.Context, points *matrix.Dense, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return RunPipeline(ctx, denseRows{points}, cfg, &shippedRunner{mrRunner{exec: exec}})
}

// shippedRunner is the cross-process MapReduce backend: every stage's
// configuration and data travel through the job Conf and record values,
// never through closures.
type shippedRunner struct{ mrRunner }

func (*shippedRunner) Name() string { return "mapreduce-shipped" }

func (r *shippedRunner) Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	hashers, err := p.Hashers()
	if err != nil {
		return nil, err
	}
	input := make([]mapreduce.Pair, p.N)
	for i := range input {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: encodeVector(p.Points.Row(i))}
	}
	return r.signatures(ctx, p, ShippedHashJobName, newShippedHashJob, lshConf{Tables: tablesConf(hashers)}, input)
}

func (r *shippedRunner) Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error) {
	values := make([][]byte, len(part.Buckets))
	var scratch []float64
	for bi, b := range part.Buckets {
		if p.Embedder != nil && willEmbed(p.Cfg, len(b.Indices), p.N) {
			rec, err := r.embeddedRecord(p, b.Indices, &scratch)
			if err != nil {
				return nil, fmt.Errorf("core: embed bucket %x: %w", b.Signature, err)
			}
			values[bi] = rec
			continue
		}
		rows := scratch[:0]
		for _, idx := range b.Indices {
			rows = append(rows, p.Points.Row(idx)...)
		}
		scratch = rows
		values[bi] = mapreduce.AppendBucketRecord(nil, mapreduce.RawBucketKind, b.Indices, p.Points.Cols(), rows)
	}
	return r.solve(ctx, p, part, ShippedSolveJobName, newShippedSolveJob, p.clusterConf(), values)
}

// embeddedRecord runs the map-side half of the embedded solve: push one
// bucket's rows through the plan's feature map and encode the record,
// metering transform time and record bytes into the runner's counters.
// The d′-dim record replaces ni·d raw coordinates with ni·d′ embedded
// ones — the shuffle-byte reduction the embed-and-conquer deployment
// exists for.
func (r *shippedRunner) embeddedRecord(p *Plan, indices []int, scratch *[]float64) ([]byte, error) {
	ni := len(indices)
	dim := p.Embedder.Dim()
	if cap(*scratch) < ni*dim {
		*scratch = make([]float64, ni*dim)
	}
	rows := (*scratch)[:ni*dim]
	start := time.Now()
	err := p.Embedder.TransformInto(rows, p.Points, indices)
	r.ctr.EmbedNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	rec := mapreduce.AppendBucketRecord(nil, mapreduce.EmbedBucketKind, indices, dim, rows)
	r.ctr.EmbedBytes += int64(len(rec))
	return rec, nil
}
