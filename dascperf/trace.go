package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/kernel"
	"repro/internal/kmeans"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/text"
)

// span is one timed interval at a layer boundary. Parent 0 marks a
// top-level span; every span of a run shares the run's trace id.
type span struct {
	ID     int                    `json:"id"`
	Parent int                    `json:"parent"`
	Name   string                 `json:"name"`
	Start  int64                  `json:"start_ns"`
	End    int64                  `json:"end_ns"`
	Attrs  map[string]interface{} `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run writes them out. It is
// safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id, attaching attrs, and returns its length in
// seconds.
func (r *recorder) end(id int, attrs map[string]interface{}) float64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	s.Attrs = attrs
	return float64(s.End-s.Start) / 1e9
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent int, start, end time.Time, attrs map[string]interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Attrs: attrs})
}

// seconds returns the length of span id.
func (r *recorder) seconds(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// selfSeconds is span id's length minus the part of its interval that
// its child spans cover (children may overlap each other).
func (r *recorder) selfSeconds(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[id-1]
	var iv [][2]int64
	for _, s := range r.spans {
		if s.Parent == id {
			iv = append(iv, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return float64(p.End-p.Start-covered) / 1e9
}

// write stores the spans as JSON.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Trace string    `json:"trace"`
		Start time.Time `json:"start"`
		Spans []span    `json:"spans"`
	}{fmt.Sprintf("%s-seed%d", workload, seed), r.t0, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanExecutor wraps a mapreduce.Executor and records one span per
// job, with the job's counters attached.
type spanExecutor struct {
	inner  mapreduce.Executor
	rec    *recorder
	parent int
	// jobs holds the length of each job span, in run order.
	jobs []float64
}

func (s *spanExecutor) Run(job *mapreduce.Job, input []mapreduce.Pair) ([]mapreduce.Pair, *mapreduce.Counters, error) {
	return s.RunContext(context.Background(), job, input)
}

func (s *spanExecutor) RunContext(ctx context.Context, job *mapreduce.Job, input []mapreduce.Pair) ([]mapreduce.Pair, *mapreduce.Counters, error) {
	id := s.rec.begin(fmt.Sprintf("mapreduce.stage%d", len(s.jobs)+1), s.parent)
	out, ctr, err := mapreduce.RunWithContext(ctx, s.inner, job, input)
	attrs := map[string]interface{}{"job": job.Name, "input_records": len(input)}
	if ctr != nil {
		attrs["counters"] = *ctr
	}
	if err != nil {
		attrs["error"] = err.Error()
	}
	s.jobs = append(s.jobs, s.rec.end(id, attrs))
	return out, ctr, err
}

// perLayer lists every per-layer metric with its unit, in report
// order. A traced run prints all of them; a layer the workload does
// not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"corpus.generate_s", "s"},
	{"text.clean_s", "s"},
	{"corpus.vectorize_s", "s"},
	{"shard.write_s", "s"},
	{"shard.write_bytes", "bytes"},
	{"core.plan_s", "s"},
	{"shard.stream_s", "s"},
	{"lsh.hash_s", "s"},
	{"lsh.partition_s", "s"},
	{"core.assemble_s", "s"},
	{"bucket.count", "count"},
	{"bucket.max_share", "ratio"},
	{"bucket.p50", "rows"},
	{"bucket.p99", "rows"},
	{"bucket.gini", "ratio"},
	{"spectral.solve_sum_s", "s"},
	{"spectral.solve_max_s", "s"},
	{"spectral.critical_size", "rows"},
	{"spectral.critical_k", "count"},
	{"spectral.parallel_eff", "ratio"},
	{"spectral.solve_s.trivial", "s"},
	{"spectral.solve_s.dense-eigen", "s"},
	{"spectral.solve_s.dense-lanczos", "s"},
	{"spectral.solve_s.sparse-lanczos", "s"},
	{"spectral.solve_s.embedded", "s"},
	{"spectral.solve_s.kmeans-fallback", "s"},
	{"spectral.buckets.trivial", "count"},
	{"spectral.buckets.dense-eigen", "count"},
	{"spectral.buckets.dense-lanczos", "count"},
	{"spectral.buckets.sparse-lanczos", "count"},
	{"spectral.buckets.embedded", "count"},
	{"spectral.buckets.kmeans-fallback", "count"},
	{"embed.transform_s", "s"},
	{"kmeans.run_s", "s"},
	{"kmeans.iterations", "count"},
	{"kernel.subgram_s", "s"},
	{"spectral.cluster_in_place_s", "s"},
	{"core.gram_mb", "MB"},
	{"mapreduce.stage1_s", "s"},
	{"mapreduce.stage2_s", "s"},
	{"core.driver_self_s", "s"},
	{"mapreduce.shuffle_bytes", "bytes"},
	{"mapreduce.wire_out_bytes", "bytes"},
	{"mapreduce.wire_in_bytes", "bytes"},
	{"mapreduce.encode_s", "s"},
	{"mapreduce.decode_s", "s"},
	{"mapreduce.spill_bytes", "bytes"},
	{"mapreduce.spill_s", "s"},
	{"mapreduce.compressed_bytes", "bytes"},
	{"mapreduce.compress_s", "s"},
	{"mapreduce.embed_bytes", "bytes"},
	{"mapreduce.embed_s", "s"},
	{"mapreduce.map_tasks", "count"},
	{"mapreduce.reduce_tasks", "count"},
	{"shard.read_bytes", "bytes"},
	{"shard.read_ops", "count"},
	{"shard.coalesced_reads", "count"},
	{"trace.untraced_cluster_s", "s"},
	{"trace.driver_cluster_s", "s"},
	{"trace.replay_cluster_s", "s"},
	{"trace.replay_self_s", "s"},
}

// solverNames are the solvers the per-solver metrics cover.
var solverNames = []string{
	core.SolverTrivial, spectral.SolverDenseEigen, spectral.SolverDenseLanczos,
	spectral.SolverSparseLanczos, spectral.SolverEmbedded, core.SolverKMeansFallback,
}

// runTraced is the per-layer run: one input build, untraced driver
// calls for half the time budget (the reference for the tracing
// overhead), one driver call through the span-recording executor, and
// a replay of the pipeline through the public layer functions whose
// labels must equal the driver's bit for bit.
func runTraced(wl *workload, o options, tmp string) (*runRecord, error) {
	rec := &runRecord{Workload: wl.name, Seed: o.seed, Trace: 1}
	tr := newRecorder()
	e, err := setup(wl, inputSeed(o.seed, 0), tmp)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "dascperf: close:", err)
		}
	}()
	for _, m := range perLayer {
		rec.set(m.name, 0, m.unit, 0)
	}

	// Untraced reference calls.
	var untraced []float64
	var digest string
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds/2 || len(untraced) < 2 {
		t := time.Now()
		res, err := e.cluster(e.executor())
		d := time.Since(t).Seconds()
		rec.Attempted++
		if err == nil {
			err = checkResult(res, e.n)
		}
		if err != nil {
			rec.Failed++
			rec.fail("untraced call %d: %v", rec.Attempted, err)
			if rec.Attempted >= minCalls {
				break
			}
			continue
		}
		if digest == "" {
			digest = labelsDigest(res.Labels)
		} else if labelsDigest(res.Labels) != digest {
			rec.Failed++
			rec.fail("untraced call %d: labels differ from call 1", rec.Attempted)
		}
		untraced = append(untraced, d)
	}
	rec.set("trace.untraced_cluster_s", median(untraced), "s", len(untraced))

	stopProfiles, err := startProfiles(o)
	if err != nil {
		return nil, err
	}
	if wl.kind == kindSharded {
		tr.add("ingest", 0, e.ingest.start, e.ingest.end, map[string]interface{}{
			"shard.write_s": e.ingest.writeSeconds, "shard.write_bytes": e.ingest.writeBytes,
		})
	}

	// The traced driver call.
	driverID := tr.begin("core.driver", 0)
	sx := &spanExecutor{inner: e.executor(), rec: tr, parent: driverID}
	var exec mapreduce.Executor
	if e.tcp != nil {
		exec = sx
	}
	rec.Attempted++
	res, err := e.cluster(exec)
	if err == nil {
		err = checkResult(res, e.n)
	}
	if err == nil && digest != "" && labelsDigest(res.Labels) != digest {
		err = fmt.Errorf("labels differ from the untraced calls'")
	}
	var sum bucketSummary
	if err == nil {
		sum = summarizeBuckets(res, e.n)
	}
	driverS := tr.end(driverID, map[string]interface{}{"critical": sum.Critical})
	if err != nil {
		rec.Failed++
		rec.fail("traced call: %v", err)
		stopProfiles()
		return rec, nil
	}
	rec.set("trace.driver_cluster_s", driverS, "s", 1)
	rec.setDriver(res, sum, sx, tr.selfSeconds(driverID))

	// The replay through the public layer functions.
	rec.Attempted++
	rp, err := replay(e, tr)
	if err == nil {
		err = rp.matches(res)
	}
	if err != nil {
		rec.Failed++
		rec.fail("replay: %v", err)
	} else {
		rec.setReplay(rp, tr, e)
		rec.Attempted++
		if err := decomposeCritical(rp, sum.Critical, tr, rec); err != nil {
			rec.Failed++
			rec.fail("critical bucket: %v", err)
		}
	}

	if wl.kind == kindSharded {
		if err := ingestLayers(o.seed, e.ingest, tr, rec); err != nil {
			rec.fail("ingest layers: %v", err)
		}
	}
	stopProfiles()

	spans := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, o.seed))
	if err := tr.write(spans, wl.name, o.seed); err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	printTracedSummary(rec, sum, spans)
	return rec, nil
}

// setDriver records the figures of the traced driver call: bucket skew
// and solve figures from Result.Buckets, the job spans, and the
// MapReduce counters.
func (r *runRecord) setDriver(res *core.Result, sum bucketSummary, sx *spanExecutor, selfS float64) {
	r.set("bucket.count", float64(sum.Count), "count", 1)
	r.set("bucket.max_share", sum.MaxShare, "ratio", 1)
	r.set("bucket.p50", float64(sum.P50), "rows", 1)
	r.set("bucket.p99", float64(sum.P99), "rows", 1)
	r.set("bucket.gini", sum.Gini, "ratio", 1)
	r.set("spectral.solve_sum_s", sum.SolveSum, "s", 1)
	r.set("spectral.solve_max_s", sum.Critical.Seconds, "s", 1)
	r.set("spectral.critical_size", float64(sum.Critical.Size), "rows", 1)
	r.set("spectral.critical_k", float64(sum.Critical.K), "count", 1)
	for _, s := range solverNames {
		r.set("spectral.solve_s."+s, sum.SolverSeconds[s], "s", 1)
		r.set("spectral.buckets."+s, float64(sum.SolverBuckets[s]), "count", 1)
	}
	r.set("core.gram_mb", sum.GramMB, "MB", 1)
	r.set("core.driver_self_s", selfS, "s", 1)
	if len(sx.jobs) >= 2 {
		r.set("mapreduce.stage1_s", sx.jobs[0], "s", 1)
		r.set("mapreduce.stage2_s", sx.jobs[1], "s", 1)
		r.set("spectral.parallel_eff", sum.SolveSum/(tcpWorkers*sx.jobs[1]), "ratio", 1)
	}
	if c := res.MapReduce; c != nil {
		r.set("mapreduce.shuffle_bytes", float64(c.ShuffleBytes), "bytes", 1)
		r.set("mapreduce.wire_out_bytes", float64(c.WireBytesOut), "bytes", 1)
		r.set("mapreduce.wire_in_bytes", float64(c.WireBytesIn), "bytes", 1)
		r.set("mapreduce.encode_s", float64(c.EncodeNanos)/1e9, "s", 1)
		r.set("mapreduce.decode_s", float64(c.DecodeNanos)/1e9, "s", 1)
		r.set("mapreduce.spill_bytes", float64(c.SpillBytes), "bytes", 1)
		r.set("mapreduce.spill_s", float64(c.SpillNanos)/1e9, "s", 1)
		r.set("mapreduce.compressed_bytes", float64(c.CompressedBytes), "bytes", 1)
		r.set("mapreduce.compress_s", float64(c.CompressNanos)/1e9, "s", 1)
		r.set("mapreduce.embed_bytes", float64(c.EmbedBytes), "bytes", 1)
		r.set("mapreduce.embed_s", float64(c.EmbedNanos)/1e9, "s", 1)
		r.set("mapreduce.map_tasks", float64(c.MapTasks), "count", 1)
		r.set("mapreduce.reduce_tasks", float64(c.ReduceTasks), "count", 1)
		r.set("shard.read_bytes", float64(c.ShardReadBytes), "bytes", 1)
		r.set("shard.read_ops", float64(c.ShardReadOps), "count", 1)
		r.set("shard.coalesced_reads", float64(c.ShardCoalescedReads), "count", 1)
	}
	r.Buckets = &sum
}

// replayResult is the outcome of the layer-by-layer replay.
type replayResult struct {
	root    int
	stages  map[string]int // stage name -> span id
	points  *matrix.Dense
	n       int
	k       int
	seed    int64
	engine  spectral.EngineConfig // Embedder, cutoffs; K and Seed per bucket
	kf      kernel.Kernel
	part    *lsh.Partition
	sols    []bucketSolution
	labels  []int
	workers int
}

type bucketSolution struct {
	labels []int
	k      int
	solver string
}

// replay runs the driver's pipeline through the public functions of
// each layer, in pipeline order, with one span per stage and bucket:
// plan fit, (for shards) the row stream, signatures, bucket merge, the
// per-bucket solves on the driver's worker count, and label assembly.
func replay(e *env, tr *recorder) (*replayResult, error) {
	rp := &replayResult{stages: map[string]int{}, workers: e.workers}
	rp.root = tr.begin("replay.cluster", 0)
	stage := func(name string) func(map[string]interface{}) {
		id := tr.begin(name, rp.root)
		rp.stages[name] = id
		return func(attrs map[string]interface{}) { tr.end(id, attrs) }
	}
	var ens *lsh.Ensemble
	var sigma float64
	var emb embed.Embedder
	radius := 1
	cfg := e.cfg
	if e.wl.kind == kindSharded {
		// The sharded driver fits its plan from FitSample evenly spaced
		// rows read from the shards, then streams every row range.
		done := stage("core.plan")
		r, err := shard.Open(e.dir)
		if err != nil {
			return nil, err
		}
		defer func() { _ = r.Close() }()
		n := r.Rows()
		if cfg.K == 0 {
			cfg.K = analytic.CategoryLaw(n)
		}
		if cfg.M == 0 {
			cfg.M = lsh.DefaultM(n)
		}
		m := core.DefaultFitSample
		if cfg.FitSample > 0 {
			m = cfg.FitSample
		}
		m = min(m, n)
		sample := matrix.NewDense(m, r.Cols())
		idx := make([]int, m)
		for i := range idx {
			idx[i] = i * n / m
		}
		if err := r.ReadRowsInto(idx, sample.Row); err != nil {
			return nil, err
		}
		ens, err = lsh.FitEnsemble(sample, lsh.Config{M: cfg.M, Policy: cfg.Policy, Bins: cfg.Bins, Seed: cfg.Seed},
			lsh.EnsembleConfig{Tables: 1})
		if err != nil {
			return nil, err
		}
		sigma = kernel.MedianSigma(sample, 512, cfg.Seed)
		if cfg.EmbedDim > 0 {
			rff, err := embed.NewRFF(r.Cols(), cfg.EmbedDim, sigma, cfg.Seed)
			if err != nil {
				return nil, err
			}
			emb = rff
		}
		done(map[string]interface{}{"fit_rows": m})

		done = stage("shard.stream")
		rp.points = matrix.NewDense(n, r.Cols())
		before := r.BytesRead()
		for _, rg := range r.Ranges() {
			if err := r.Stream(rg[0], rg[1]-rg[0], func(i int, row []float64) error {
				copy(rp.points.Row(i), row)
				return nil
			}); err != nil {
				return nil, err
			}
		}
		done(map[string]interface{}{"bytes": r.BytesRead() - before})
	} else {
		done := stage("core.plan")
		cfg.Workers = e.workers
		p, err := core.NewPlan(e.points, cfg, e.wl.kind == kindShipped)
		if err != nil {
			return nil, err
		}
		done(nil)
		rp.points, ens, sigma, emb, radius, cfg = p.Points, p.Ensemble, p.Sigma, p.Embedder, p.Radius, p.Cfg
	}
	rp.n, rp.k, rp.seed = rp.points.Rows(), cfg.K, cfg.Seed
	rp.kf = kernel.NewGaussian(sigma)
	embedCutoff := cfg.EmbedCutoff
	if cfg.EmbedDim > 0 && embedCutoff == 0 {
		embedCutoff = core.DefaultEmbedCutoff
	}
	rp.engine = spectral.EngineConfig{SparseCutoff: cfg.SparseCutoff, Epsilon: cfg.Epsilon, Embedder: emb, EmbedCutoff: embedCutoff}

	done := stage("lsh.hash")
	sigs := ens.Hash(rp.points)
	done(nil)

	done = stage("lsh.partition")
	var psrc lsh.PointSource
	if e.wl.kind != kindSharded {
		psrc = rp.points
	}
	part, err := ens.Partition(psrc, sigs, radius)
	if err != nil {
		return nil, err
	}
	rp.part = part
	done(map[string]interface{}{"buckets": len(part.Buckets)})

	done = stage("spectral.solve")
	sols, err := rp.solveAll(tr, rp.stages["spectral.solve"])
	if err != nil {
		return nil, err
	}
	rp.sols = sols
	done(nil)

	done = stage("core.assemble")
	rp.labels = make([]int, rp.n)
	offset := 0
	for bi, b := range part.Buckets {
		for pos, idx := range b.Indices {
			rp.labels[idx] = offset + sols[bi].labels[pos]
		}
		offset += sols[bi].k
	}
	done(map[string]interface{}{"clusters": offset})
	tr.end(rp.root, nil)
	return rp, nil
}

// solveAll solves every bucket on rp.workers goroutines, largest first,
// each worker reusing one scratch buffer — the local runner's schedule.
func (rp *replayResult) solveAll(tr *recorder, parent int) ([]bucketSolution, error) {
	buckets := rp.part.Buckets
	order := make([]int, len(buckets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(buckets[order[a]].Indices) > len(buckets[order[b]].Indices) })
	sols := make([]bucketSolution, len(buckets))
	errs := make([]error, len(buckets))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(rp.workers, len(order))); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []float64
			for {
				oi := int(cursor.Add(1)) - 1
				if oi >= len(order) {
					return
				}
				bi := order[oi]
				b := buckets[bi]
				id := tr.begin("spectral.bucket", parent)
				sols[bi], errs[bi] = rp.solveBucket(b.Indices, &scratch)
				tr.end(id, map[string]interface{}{
					"signature": fmt.Sprintf("%016x", b.Signature), "size": len(b.Indices),
					"k": sols[bi].k, "solver": sols[bi].solver,
				})
			}
		}()
	}
	wg.Wait()
	for bi, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bucket %x: %w", buckets[bi].Signature, err)
		}
	}
	return sols, nil
}

// solveBucket is the driver's per-bucket solve: the trivial
// short-circuits, then spectral.ClusterBucket seeded with
// Seed + indices[0], then k-means on the raw rows if the engine fails.
func (rp *replayResult) solveBucket(indices []int, scratch *[]float64) (bucketSolution, error) {
	ni := len(indices)
	ki := core.BucketK(rp.k, ni, rp.n)
	if ni == 1 || ki == 1 {
		return bucketSolution{labels: make([]int, ni), k: 1, solver: core.SolverTrivial}, nil
	}
	if ki == ni {
		labels := make([]int, ni)
		for i := range labels {
			labels[i] = i
		}
		return bucketSolution{labels: labels, k: ni, solver: core.SolverTrivial}, nil
	}
	ecfg := rp.engine
	ecfg.K, ecfg.Seed = ki, rp.seed+int64(indices[0])
	res, stats, err := spectral.ClusterBucket(rp.points, indices, rp.kf, ecfg, scratch)
	if err == nil {
		return bucketSolution{labels: res.Labels, k: ki, solver: stats.Solver}, nil
	}
	pts := matrix.NewDense(ni, rp.points.Cols())
	for i, idx := range indices {
		copy(pts.Row(i), rp.points.Row(idx))
	}
	km, kerr := kmeans.Run(pts, kmeans.Config{K: ki, Seed: rp.seed})
	if kerr != nil {
		return bucketSolution{}, fmt.Errorf("spectral (%v) and kmeans fallback (%v) both failed", err, kerr)
	}
	return bucketSolution{labels: km.Labels, k: ki, solver: core.SolverKMeansFallback}, nil
}

// matches checks the replay against the driver: the same partition,
// per-bucket K and solver, and bit-identical labels.
func (rp *replayResult) matches(res *core.Result) error {
	if len(rp.part.Buckets) != len(res.Buckets) {
		return fmt.Errorf("%d buckets, driver had %d", len(rp.part.Buckets), len(res.Buckets))
	}
	for i, b := range rp.part.Buckets {
		d := res.Buckets[i]
		if b.Signature != d.Signature || len(b.Indices) != d.Size || rp.sols[i].k != d.K || rp.sols[i].solver != d.Solver {
			return fmt.Errorf("bucket %d is %016x size %d k %d %s, driver had %016x size %d k %d %s",
				i, b.Signature, len(b.Indices), rp.sols[i].k, rp.sols[i].solver, d.Signature, d.Size, d.K, d.Solver)
		}
	}
	for i := range rp.labels {
		if rp.labels[i] != res.Labels[i] {
			return fmt.Errorf("label of point %d is %d, driver had %d", i, rp.labels[i], res.Labels[i])
		}
	}
	return nil
}

// setReplay records the replay's stage spans.
func (r *runRecord) setReplay(rp *replayResult, tr *recorder, e *env) {
	for _, s := range []string{"core.plan", "shard.stream", "lsh.hash", "lsh.partition", "core.assemble"} {
		if id, ok := rp.stages[s]; ok {
			r.set(s+"_s", tr.seconds(id), "s", 1)
		}
	}
	r.set("trace.replay_cluster_s", tr.seconds(rp.root), "s", 1)
	r.set("trace.replay_self_s", tr.selfSeconds(rp.root), "s", 1)
	if e.tcp == nil {
		// The local runner has no job span: its solve wall is the
		// replay's solve stage, which runs the same schedule.
		var solveSum float64
		tr.mu.Lock()
		for _, s := range tr.spans {
			if s.Parent == rp.stages["spectral.solve"] {
				solveSum += float64(s.End-s.Start) / 1e9
			}
		}
		tr.mu.Unlock()
		wall := tr.seconds(rp.stages["spectral.solve"])
		r.set("spectral.parallel_eff", solveSum/(float64(rp.workers)*wall), "ratio", 1)
	}
}

// decomposeCritical re-runs the critical-path bucket one layer call at
// a time — embed.TransformInto then kmeans.Run for an embedded bucket,
// kernel.SubGramPooled then spectral.ClusterInPlace for a dense one —
// and checks the labels against the replay's solve of that bucket.
func decomposeCritical(rp *replayResult, crit criticalBucket, tr *recorder, rec *runRecord) error {
	bi := -1
	for i, b := range rp.part.Buckets {
		if b.Signature == crit.Signature {
			bi = i
			break
		}
	}
	if bi < 0 {
		return fmt.Errorf("bucket %016x not in the replay partition", crit.Signature)
	}
	indices := rp.part.Buckets[bi].Indices
	ni := len(indices)
	ki := core.BucketK(rp.k, ni, rp.n)
	seed := rp.seed + int64(indices[0])
	parent := tr.begin("critical.bucket", 0)
	defer tr.end(parent, map[string]interface{}{
		"signature": fmt.Sprintf("%016x", crit.Signature), "size": ni, "k": ki, "solver": crit.Solver,
	})
	var labels []int
	switch crit.Solver {
	case spectral.SolverEmbedded:
		dim := rp.engine.Embedder.Dim()
		buf := make([]float64, ni*dim)
		id := tr.begin("embed.transform", parent)
		err := rp.engine.Embedder.TransformInto(buf, rp.points, indices)
		rec.set("embed.transform_s", tr.end(id, nil), "s", 1)
		if err != nil {
			return err
		}
		rows, err := matrix.NewDenseData(ni, dim, buf)
		if err != nil {
			return err
		}
		id = tr.begin("kmeans.run", parent)
		km, err := kmeans.Run(rows, kmeans.Config{K: min(ki, ni), Seed: seed})
		if err != nil {
			tr.end(id, nil)
			return err
		}
		rec.set("kmeans.run_s", tr.end(id, map[string]interface{}{"iterations": km.Iterations}), "s", 1)
		rec.set("kmeans.iterations", float64(km.Iterations), "count", 1)
		labels = km.Labels
	case spectral.SolverDenseEigen, spectral.SolverDenseLanczos:
		var scratch []float64
		id := tr.begin("kernel.subgram", parent)
		sub, err := kernel.SubGramPooled(rp.points, indices, rp.kf, &scratch, false)
		rec.set("kernel.subgram_s", tr.end(id, nil), "s", 1)
		if err != nil {
			return err
		}
		id = tr.begin("spectral.cluster_in_place", parent)
		res, err := spectral.ClusterInPlace(sub, spectral.Config{K: ki, Seed: seed})
		rec.set("spectral.cluster_in_place_s", tr.end(id, nil), "s", 1)
		if err != nil {
			return err
		}
		labels = res.Labels
	default:
		// Trivial buckets have no layer calls to split.
		return nil
	}
	want := rp.sols[bi].labels
	for i := range want {
		if labels[i] != want[i] {
			return fmt.Errorf("split solve of bucket %016x gives label %d for row %d, the engine gave %d",
				crit.Signature, labels[i], i, want[i])
		}
	}
	return nil
}

// ingestLayers splits the wiki-sharded ingest into its layers: one
// pass of corpus generation with text.Clean timed per document gives
// corpus.generate_s and text.clean_s; StreamDense makes two such passes,
// so corpus.vectorize_s is the ingest time less the shard writer and
// two generate+clean passes (the tf-idf scoring and projection).
func ingestLayers(seed int64, ing *ingestReport, tr *recorder, rec *runRecord) error {
	var cleanNs int64
	var tokens int
	id := tr.begin("corpus.generate+text.clean", 0)
	start := time.Now()
	_, err := corpus.GenerateStream(corpusConfig(seed), func(doc string, _ int) error {
		t := time.Now()
		tokens += len(text.Clean(doc))
		cleanNs += time.Since(t).Nanoseconds()
		return nil
	})
	total := time.Since(start).Seconds()
	clean := float64(cleanNs) / 1e9
	tr.end(id, map[string]interface{}{"text.clean_s": clean, "tokens": tokens})
	if err != nil {
		return err
	}
	gen := total - clean
	rec.set("corpus.generate_s", gen, "s", 1)
	rec.set("text.clean_s", clean, "s", 1)
	rec.set("corpus.vectorize_s", ing.seconds-ing.writeSeconds-2*total, "s", 1)
	rec.set("shard.write_s", ing.writeSeconds, "s", 1)
	rec.set("shard.write_bytes", float64(ing.writeBytes), "bytes", 1)
	return nil
}

// startProfiles starts the opt-in CPU profile and execution trace and
// returns the function that stops them and writes the heap profile.
func startProfiles(o options) (func(), error) {
	var stops []func()
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dascperf: cpu profile:", err)
			}
		})
	}
	if o.execTrace != "" {
		f, err := os.Create(o.execTrace)
		if err != nil {
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			rtrace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dascperf: execution trace:", err)
			}
		})
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
		if o.memProfile == "" {
			return
		}
		f, err := os.Create(o.memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dascperf: heap profile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dascperf: heap profile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dascperf: heap profile:", err)
		}
	}, nil
}

func printTracedSummary(rec *runRecord, sum bucketSummary, spans string) {
	m := func(name string) float64 { return rec.Metrics[name].Value }
	fmt.Printf("  untraced cluster_s %.4fs (median of %d) | traced driver %.4fs | replay %.4fs\n",
		m("trace.untraced_cluster_s"), rec.Samples["trace.untraced_cluster_s"],
		m("trace.driver_cluster_s"), m("trace.replay_cluster_s"))
	fmt.Printf("  driver: stage1 %.4fs stage2 %.4fs self %.4fs\n",
		m("mapreduce.stage1_s"), m("mapreduce.stage2_s"), m("core.driver_self_s"))
	fmt.Printf("  replay: plan %.4fs stream %.4fs hash %.4fs partition %.4fs solve(wall) %.4fs assemble %.4fs unaccounted %.4fs\n",
		m("core.plan_s"), m("shard.stream_s"), m("lsh.hash_s"), m("lsh.partition_s"),
		m("trace.replay_cluster_s")-m("core.plan_s")-m("shard.stream_s")-m("lsh.hash_s")-m("lsh.partition_s")-m("core.assemble_s")-m("trace.replay_self_s"),
		m("core.assemble_s"), m("trace.replay_self_s"))
	c := sum.Critical
	fmt.Printf("  critical-path bucket %016x: size=%d k=%d solver=%s solve=%.4fs; solve sum %.4fs, parallel efficiency %.2f\n",
		c.Signature, c.Size, c.K, c.Solver, c.Seconds, sum.SolveSum, m("spectral.parallel_eff"))
	fmt.Printf("  spans: %s\n", spans)
}
