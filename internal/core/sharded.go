package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/embed"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// This file is the out-of-core driver: the two stages of mapreduce.go
// with the input matrix in a shard directory (internal/shard) instead
// of driver memory. The plan is fitted on a sample of shard rows, and
// both stages' workers demand-read only the rows their tasks touch. The
// driver's resident footprint is the fit sample plus MapReduce
// bookkeeping — never the full matrix — so dataset size is bounded by
// disk, not RAM. Combined with Config.SpillBytes this is the data plane
// of the first million-point runs.
//
// Stage 1 maps over shard row ranges (the HDFS-input-split analogue):
// each record names a [start, start+count) range, the mapper streams
// exactly those rows from its process-local shard reader. Stage 2 ships
// only bucket index lists; the reducer hydrates each bucket's rows from
// the shards and solves it with clusterOneBucket. With
// Config.FitSample >= N the plan fit sees every row and the labels are
// bit-identical to the in-memory drivers'.

// Names of the factory-registered sharded jobs.
const (
	ShardedHashJobName  = "dasc/sharded-lsh"
	ShardedSolveJobName = "dasc/sharded-cluster"
)

func init() {
	mapreduce.RegisterFactory(ShardedHashJobName, newShardedHashJob)
	mapreduce.RegisterFactory(ShardedSolveJobName, newShardedSolveJob)
	// Workers ship this process-cumulative meter back on TCP results so
	// a master in another process can account our shard reads.
	mapreduce.SetShardMeter(workerShardBytes)
}

// shardedLSHConf is the stage-1 configuration: the shard directory and
// every table's fitted hash parameters.
type shardedLSHConf struct {
	Dir    string
	Tables []lshTable
}

// shardedClusterConf is the stage-2 configuration: the shard directory
// plus the same clustering parameters the shipped job carries. Workers
// refit the kernel embedding from (Cols, EmbedDim, Sigma, Seed) — a
// pure function, so every worker holds bitwise the same feature map.
type shardedClusterConf struct {
	Dir string
	C   clusterConf
}

// shardReaders caches one open shard.Reader per directory for the
// lifetime of the worker process — the HDFS-block-cache analogue. The
// readers are never closed (their handles die with the process, and
// every task of every job over the same input shares them); reads go
// through ReadAt, so one reader serves concurrent reduce tasks.
var shardReaders sync.Map // dir -> *shard.Reader

// cachedShardReader returns the process-wide reader for dir, opening
// it on first use. A racing open closes the loser.
func cachedShardReader(dir string) (*shard.Reader, error) {
	if v, ok := shardReaders.Load(dir); ok {
		return v.(*shard.Reader), nil
	}
	r, err := shard.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("core: shard input: %w", err)
	}
	if v, loaded := shardReaders.LoadOrStore(dir, r); loaded {
		if cerr := r.Close(); cerr != nil {
			return nil, fmt.Errorf("core: shard input: %w", cerr)
		}
		return v.(*shard.Reader), nil
	}
	return r, nil
}

// workerShardBytes sums the shard bytes read through this process's
// reader cache, for the driver's ShardReadBytes delta accounting.
func workerShardBytes() int64 {
	bytes, _, _ := workerShardIOStats()
	return bytes
}

// workerShardIOStats sums the bytes, ReadAt-call and coalesced-read
// counters across the reader cache.
func workerShardIOStats() (bytes, ops, coalesced int64) {
	shardReaders.Range(func(_, v interface{}) bool {
		r := v.(*shard.Reader)
		bytes += r.BytesRead()
		ops += r.ReadOps()
		coalesced += r.CoalescedReads()
		return true
	})
	return bytes, ops, coalesced
}

// encodeRowRange / decodeRowRange pack a stage-1 input record: one
// half-open shard row range [start, start+count).
func encodeRowRange(start, count int) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], uint32(start))
	binary.LittleEndian.PutUint32(buf[4:], uint32(count))
	return buf
}

func decodeRowRange(buf []byte) (start, count int, err error) {
	if len(buf) != 8 {
		return 0, 0, fmt.Errorf("core: row range payload length %d", len(buf))
	}
	return int(binary.LittleEndian.Uint32(buf[0:])), int(binary.LittleEndian.Uint32(buf[4:])), nil
}

// newShardedHashJob rebuilds stage 1 from its configuration: the mapper
// streams its record's row range from the local shard reader and hashes
// every row with each table's shipped thresholds; the reducer is the
// identity grouping, exactly like the shipped LSH job.
func newShardedHashJob(conf []byte) (*mapreduce.Job, error) {
	var c shardedLSHConf
	if err := gobDecode(conf, &c); err != nil {
		return nil, fmt.Errorf("core: sharded lsh conf: %w", err)
	}
	if c.Dir == "" {
		return nil, fmt.Errorf("core: sharded lsh conf needs a directory")
	}
	if err := validateTables(c.Tables); err != nil {
		return nil, err
	}
	return &mapreduce.Job{
		NumReducers: 4,
		SplitSize:   1, // one map task per shard row range
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			start, count, err := decodeRowRange(value)
			if err != nil {
				return err
			}
			r, err := cachedShardReader(c.Dir)
			if err != nil {
				return err
			}
			return r.Stream(start, count, func(idx int, row []float64) error {
				return hashRow(c.Tables, idx, row, emit)
			})
		},
		Reduce: passThroughReduce,
	}, nil
}

// newShardedSolveJob rebuilds stage 2: each reduce value is a bucket
// index list; the reducer hydrates exactly those rows from the shard
// reader and solves them with clusterOneBucket (same engine, same embed
// policy as the in-memory drivers).
func newShardedSolveJob(conf []byte) (*mapreduce.Job, error) {
	var sc shardedClusterConf
	if err := gobDecode(conf, &sc); err != nil {
		return nil, fmt.Errorf("core: sharded cluster conf: %w", err)
	}
	c := sc.C
	if sc.Dir == "" {
		return nil, fmt.Errorf("core: sharded cluster conf needs a directory")
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	// The embedder is a pure function of (cols, d', sigma, seed): fit it
	// once per job build so every reduce task shares one feature map,
	// bitwise identical to the driver's.
	var emb embed.Embedder
	if c.EmbedDim > 0 {
		r, err := cachedShardReader(sc.Dir)
		if err != nil {
			return nil, err
		}
		emb, err = embed.NewRFF(r.Cols(), c.EmbedDim, c.Sigma, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: sharded embed: %w", err)
		}
	}
	return &mapreduce.Job{
		NumReducers: 4,
		Map:         passThrough,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			r, err := cachedShardReader(sc.Dir)
			if err != nil {
				return err
			}
			var scratch []float64
			for _, v := range values {
				indices, err := unpackIndices(v)
				if err != nil {
					return err
				}
				pts, err := hydrateBucket(r, indices)
				if err != nil {
					return err
				}
				sol, err := clusterOneBucket(pts, iota(len(indices)), indices, c, emb, &scratch)
				if err != nil {
					return err
				}
				emitSolution(key, indices, sol, emit)
			}
			return nil
		},
	}, nil
}

// hydrateBucket demand-reads one bucket's rows into a dense ni×d
// block — the only rows of the matrix this reduce task ever touches.
// Bucket index lists are sorted ascending, so the coalescing gather
// turns a bucket that lands inside one shard into a few large reads.
func hydrateBucket(r *shard.Reader, indices []int) (*matrix.Dense, error) {
	pts := matrix.NewDense(len(indices), r.Cols())
	if err := r.ReadRowsInto(indices, pts.Row); err != nil {
		return nil, err
	}
	return pts, nil
}

// shardRows is the RowSource of a shard directory. Row allocates per
// call; the partition stage only consults it when ProbeRadius > 0. A
// read failure returns a zero row and is reported by err, which the
// pipeline checks after partitioning.
type shardRows struct {
	r       *shard.Reader
	readErr error
}

func (s *shardRows) Rows() int  { return s.r.Rows() }
func (s *shardRows) err() error { return s.readErr }

func (s *shardRows) Row(i int) []float64 {
	row, err := s.r.ReadRow(i, nil)
	if err != nil {
		if s.readErr == nil {
			s.readErr = err
		}
		return make([]float64, s.r.Cols())
	}
	return row
}

// fitRows reads min(fitSample, N) evenly spaced rows. With
// fitSample >= N this is the full matrix in row order, which makes
// every downstream fit identical to the in-memory drivers'.
func (s *shardRows) fitRows(fitSample int) (*matrix.Dense, error) {
	n := s.r.Rows()
	m := min(fitSample, n)
	sample := matrix.NewDense(m, s.r.Cols())
	indices := make([]int, m)
	for i := range indices {
		indices[i] = i * n / m // evenly spaced; identity i==idx when m == n
	}
	if err := s.r.ReadRowsInto(indices, sample.Row); err != nil {
		return nil, err
	}
	return sample, nil
}

// ClusterMapReduceSharded runs DASC's two MapReduce stages against a
// shard directory written by internal/shard, never materializing the
// input matrix in driver memory: stage-1 mappers stream their assigned
// shard row ranges and stage-2 reducers demand-read only the rows their
// buckets reference. The plan (LSH thresholds, kernel bandwidth,
// feature map) is fitted from Config.FitSample evenly spaced rows;
// FitSample >= N makes the labels bit-identical to the in-memory
// drivers. Workers may live in other OS processes provided they can
// open the same shard directory (start them with cmd/dascworker on a
// shared filesystem).
func ClusterMapReduceSharded(dir string, cfg Config, exec mapreduce.Executor) (*Result, error) {
	return ClusterMapReduceShardedContext(context.Background(), dir, cfg, exec)
}

// ClusterMapReduceShardedContext is ClusterMapReduceSharded with
// cancellation.
func ClusterMapReduceShardedContext(ctx context.Context, dir string, cfg Config, exec mapreduce.Executor) (*Result, error) {
	r := &shardedRunner{mrRunner: mrRunner{exec: exec}, dir: dir}
	r.ioStart[0], r.ioStart[1], r.ioStart[2] = workerShardIOStats()
	// The driver uses the same process-wide cached reader as in-process
	// workers: one set of handles per directory, shared by the fit
	// sample, probe reads, and every local reduce task.
	reader, err := cachedShardReader(dir)
	if err != nil {
		return nil, err
	}
	r.reader = reader
	return RunPipeline(ctx, &shardRows{r: reader}, cfg, r)
}

// shardedRunner is the out-of-core MapReduce backend: stage 1 runs over
// shard row ranges and stage 2 over bucket index lists, each worker
// reading the rows it needs from dir.
type shardedRunner struct {
	mrRunner
	dir    string
	reader *shard.Reader
	// ioStart is the process's shard bytes, read ops and coalesced reads
	// before the run, so the run's share can be told apart.
	ioStart [3]int64
}

func (*shardedRunner) Name() string { return "mapreduce-sharded" }

// MapReduceCounters adds the shard reads this process made during the
// run — the fit sample, probe rows, and every in-process worker's
// stage reads — to the executor counters. External TCP worker
// processes report their reads on result frames, which the master
// already folded into the stage counters.
func (r *shardedRunner) MapReduceCounters() *mapreduce.Counters {
	c := r.ctr
	bytes, ops, coalesced := workerShardIOStats()
	c.ShardReadBytes += bytes - r.ioStart[0]
	c.ShardReadOps += ops - r.ioStart[1]
	c.ShardCoalescedReads += coalesced - r.ioStart[2]
	return &c
}

func (r *shardedRunner) Signatures(ctx context.Context, p *Plan) (*lsh.SignatureSet, error) {
	hashers, err := p.Hashers()
	if err != nil {
		return nil, err
	}
	ranges := r.reader.Ranges()
	input := make([]mapreduce.Pair, len(ranges))
	for i, rg := range ranges {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: encodeRowRange(rg[0], rg[1]-rg[0])}
	}
	conf := shardedLSHConf{Dir: r.dir, Tables: tablesConf(hashers)}
	return r.signatures(ctx, p, ShardedHashJobName, newShardedHashJob, conf, input)
}

func (r *shardedRunner) Solve(ctx context.Context, p *Plan, part *lsh.Partition) ([]BucketSolution, error) {
	values := make([][]byte, len(part.Buckets))
	for bi, b := range part.Buckets {
		values[bi] = packIndices(b.Indices)
	}
	conf := shardedClusterConf{Dir: r.dir, C: p.clusterConf()}
	return r.solve(ctx, p, part, ShardedSolveJobName, newShardedSolveJob, conf, values)
}
