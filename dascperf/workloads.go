package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/shard"
)

// Workload sizes. README.md records how they were chosen; changing any
// of them redefines the benchmark, so parent and child commits must be
// measured with the same values.
const (
	// wiki-sharded: the Eq.-15 corpus streamed to shards.
	wikiDocs  = 10000
	wikiVocab = 8192
	wikiF     = 11 // paper §5.2: keep the top-11 terms per document
	wikiDims  = 11 // and represent every document in d = 11 dimensions
	wikiSpill = 256 << 10

	// blobs-exact: in-memory mixture, exact dense Gram + eigensolve.
	exactN = 10000
	exactD = 64

	// blobs-shipped: mixture shipped through wire and spill.
	shippedN     = 50000
	shippedD     = 32
	shippedSpill = 1 << 20

	// csvReads is how many times a blobs setup reads its CSV input;
	// ingest_s takes the median.
	csvReads = 3

	// blobsLayout seeds the blob centers of both blobs workloads;
	// blobsNoise is the per-dimension standard deviation around them.
	// A mixture has as many blobs as the paper's category law gives
	// clusters for its N, so each bucket's K matches the blobs in it.
	blobsLayout = 1
	blobsNoise  = 0.05

	// maxInputs bounds the inputs one run builds (see workload.inputs).
	maxInputs = 16

	// tcpWorkers is the size of the in-process TCP cluster.
	tcpWorkers = 2
)

// kind selects the driver a workload calls.
type kind int

const (
	kindSharded kind = iota
	kindExact
	kindShipped
)

// workload is one benchmark input and the driver it exercises; README.md
// gives the reason for each.
type workload struct {
	name string
	kind kind
	// inputs is how many inputs an end-to-end run builds and clusters.
	// Cost and accuracy vary from one input to the next, so a run
	// reports the mean over several; cheap inputs allow more.
	inputs int
}

var workloads = []workload{
	{
		name:   "wiki-sharded",
		kind:   kindSharded,
		inputs: 6,
	},
	{
		name:   "blobs-exact",
		kind:   kindExact,
		inputs: 16,
	},
	{
		name:   "blobs-shipped",
		kind:   kindShipped,
		inputs: 4,
	},
}

// inputSeed derives the seed of input i of a run with the given seed;
// runs with different seeds never share an input.
func inputSeed(seed int64, i int) int64 {
	return seed*maxInputs + int64(i)
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// env is a workload's prepared input: the data, the ground truth, the
// driver configuration and, for the MapReduce drivers, a running TCP
// cluster.
type env struct {
	wl     *workload
	n      int
	truth  []int
	points *matrix.Dense // blobs workloads
	dir    string        // wiki-sharded shard directory
	cfg    core.Config
	tcp    *tcpCluster
	ingest *ingestReport
	// workers is the solve parallelism of the driver: TCP workers for
	// the MapReduce drivers, cfg.Workers for the local runner.
	workers int
}

// ingestReport describes one input build.
type ingestReport struct {
	// seconds is the wall time from raw input to the form the driver
	// consumes: corpus.StreamDense + shard.Writer for wiki-sharded,
	// dataset.ReadCSV for the blobs workloads.
	seconds float64
	// writeSeconds is the time spent inside shard.Writer (Append and
	// Close); writeBytes is the size of the shard files.
	writeSeconds float64
	writeBytes   int64
	// start and end bound the build, for the traced run's ingest span.
	start, end time.Time
}

// setup builds the workload's input under tmp and starts its TCP
// cluster. The caller closes the env.
func setup(wl *workload, seed int64, tmp string) (*env, error) {
	e := &env{wl: wl}
	switch wl.kind {
	case kindSharded:
		dir, err := os.MkdirTemp(tmp, "shards-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		rep, labels, err := ingestCorpus(dir, seed)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		e.ingest, e.truth, e.n = rep, labels, len(labels)
		e.cfg = core.Config{Seed: seed, SpillBytes: wikiSpill, EmbedDim: 64, EmbedCutoff: 2048}
	case kindExact:
		if err := e.mixture(tmp, exactN, exactD, seed); err != nil {
			return nil, err
		}
		e.cfg = core.Config{Seed: seed, Workers: tcpWorkers}
		e.workers = tcpWorkers
		return e, nil
	case kindShipped:
		if err := e.mixture(tmp, shippedN, shippedD, seed); err != nil {
			return nil, err
		}
		e.cfg = core.Config{Seed: seed, SpillBytes: shippedSpill, EmbedDim: 64, Compression: true}
	}
	c, err := startCluster(tcpWorkers)
	if err != nil {
		_ = e.close()
		return nil, err
	}
	e.tcp = c
	e.workers = tcpWorkers
	return e, nil
}

// mixture builds a blobs input: the mixture is written to a CSV file
// (the dataset package's on-disk format, which cmd/dasc reads) and the
// ingest reads it back with dataset.ReadCSV, csvReads times.
func (e *env) mixture(dir string, n, d int, seed int64) error {
	path := filepath.Join(dir, "blobs.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blobs(n, d, analytic.CategoryLaw(n), seed).WriteCSV(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var reads []float64
	for r := 0; r < csvReads; r++ {
		start := time.Now()
		ds, err := readCSV(path)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("read mixture: %w", err)
		}
		if ds.Points.Rows() != n || ds.Points.Cols() != d {
			return fmt.Errorf("read a %dx%d mixture, wrote %dx%d", ds.Points.Rows(), ds.Points.Cols(), n, d)
		}
		reads = append(reads, end.Sub(start).Seconds())
		e.ingest = &ingestReport{seconds: median(reads), start: start, end: end}
		e.points, e.truth, e.n = ds.Points, ds.Labels, n
	}
	return nil
}

func readCSV(path string) (*dataset.Labeled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	return dataset.ReadCSV(f)
}

// blobs draws n points from k Gaussian blobs in [0, 1]^d, in
// contiguous label runs, like dataset.Mixture. The blob centers come
// from the fixed blobsLayout seed and only the noise from seed: the
// LSH partition of a mixture, and with it the cost of clustering it,
// depends strongly on where the centers fall, so a fixed layout keeps
// runs with different seeds comparable.
func blobs(n, d, k int, seed int64) *dataset.Labeled {
	layout := rand.New(rand.NewSource(blobsLayout))
	centers := matrix.NewDense(k, d)
	for i := range centers.Data() {
		centers.Data()[i] = 0.1 + 0.8*layout.Float64()
	}
	rng := rand.New(rand.NewSource(seed))
	pts := matrix.NewDense(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i * k / n
		labels[i] = c
		row, center := pts.Row(i), centers.Row(c)
		for j := range row {
			row[j] = math.Min(1, math.Max(0, center[j]+rng.NormFloat64()*blobsNoise))
		}
	}
	return &dataset.Labeled{Points: pts, Labels: labels}
}

// close stops the TCP cluster and removes the shard directory.
func (e *env) close() error {
	var errs []error
	if e.tcp != nil {
		errs = append(errs, e.tcp.close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// executor is the driver's default executor: the TCP master, or nil
// for the local runner.
func (e *env) executor() mapreduce.Executor {
	if e.tcp == nil {
		return nil
	}
	return e.tcp.master
}

// cluster makes one driver call: from input ready to labels returned.
func (e *env) cluster(exec mapreduce.Executor) (*core.Result, error) {
	switch e.wl.kind {
	case kindSharded:
		return core.ClusterMapReduceSharded(e.dir, e.cfg, exec)
	case kindShipped:
		return core.ClusterMapReduceShipped(e.points, e.cfg, exec)
	default:
		return core.Cluster(e.points, e.cfg)
	}
}

// corpusConfig is the wiki-sharded corpus: the category count follows
// the paper's law K = 17(log2 N - 9).
func corpusConfig(seed int64) corpus.Config {
	return corpus.Config{NumDocs: wikiDocs, Seed: seed, VocabSize: wikiVocab}
}

// ingestCorpus streams the corpus through the text pipeline straight
// into shard files in dir, returning the ground-truth labels.
func ingestCorpus(dir string, seed int64) (*ingestReport, []int, error) {
	labels := make([]int, 0, wikiDocs)
	start := time.Now()
	w, err := shard.NewWriter(dir, wikiDims, shard.DefaultRowsPerShard)
	if err != nil {
		return nil, nil, err
	}
	var writeNs int64
	_, err = corpus.StreamDense(corpusConfig(seed), wikiF, wikiDims, seed, func(row []float64, label int) error {
		labels = append(labels, label)
		t := time.Now()
		err := w.Append(row)
		writeNs += time.Since(t).Nanoseconds()
		return err
	})
	if err != nil {
		_ = w.Close()
		return nil, nil, err
	}
	t := time.Now()
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	end := time.Now()
	writeNs += end.Sub(t).Nanoseconds()
	rep := &ingestReport{seconds: end.Sub(start).Seconds(), writeSeconds: float64(writeNs) / 1e9, start: start, end: end}
	rep.writeBytes, err = dirSize(dir)
	if err != nil {
		return nil, nil, err
	}
	return rep, labels, nil
}

// dirSize sums the sizes of the files in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if !info.IsDir() {
			total += info.Size()
		}
	}
	return total, nil
}

// tcpCluster is a TCP master with in-process socket workers.
type tcpCluster struct {
	master *mapreduce.Master
	wg     sync.WaitGroup
}

func startCluster(workers int) (*tcpCluster, error) {
	m, err := mapreduce.NewMaster("127.0.0.1:0", workers)
	if err != nil {
		return nil, err
	}
	c := &tcpCluster{master: m}
	for i := 0; i < workers; i++ {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			// A worker returns an error when the master closes its
			// connection at shutdown; job failures surface at the master.
			_ = mapreduce.RunWorker(m.Addr())
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.ConnectedWorkers() < workers {
		if time.Now().After(deadline) {
			_ = c.close()
			return nil, fmt.Errorf("%d TCP workers did not join", workers)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// close stops the master and waits for every worker goroutine.
func (c *tcpCluster) close() error {
	err := c.master.Close()
	c.wg.Wait()
	return err
}
