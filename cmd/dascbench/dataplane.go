package main

// The MapReduce data-plane benchmarks: the k-way merge shuffle against
// the concat+stable-sort it replaced, the binary frame codec round
// trip, and the end-to-end shuffle-heavy TCP job on the pipelined
// frame protocol, with and without frame compression.

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/mapreduce"
)

// addFunc matches run()'s benchmark registrar.
type addFunc func(name string, acc, gramfrac float64, f func()) *Result

// benchDataPlane appends the data-plane entries to the report.
func benchDataPlane(add addFunc, quick bool) error {
	// Shuffle microbench: 32 map tasks' sorted runs of 1024 small pairs.
	runs := sortedRuns(32, 1024)
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	add("shuffle/merge", 0, 0, func() { mapreduce.MergeRuns(runs) })
	add("shuffle/concat-sort", 0, 0, func() {
		concat := make([]mapreduce.Pair, 0, total)
		for _, r := range runs {
			concat = append(concat, r...)
		}
		sort.SliceStable(concat, func(i, j int) bool { return concat[i].Key < concat[j].Key })
	})

	// Spill shuffle A/B: the same shuffle-heavy job through the Local
	// executor fully in memory and with a budget small enough to force
	// file-backed runs on every map task, so the delta is the price of
	// the out-of-core merge path.
	spillInput := make([]mapreduce.Pair, 512)
	for i := range spillInput {
		spillInput[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: []byte{byte(i)}}
	}
	inmemJob := shuffleJob("dascbench/shuffle-inmem")
	spillJob := shuffleJob("dascbench/shuffle-spill")
	spillJob.SpillBytes = 64 << 10
	compJob := shuffleJob("dascbench/shuffle-spill-comp")
	compJob.SpillBytes = 64 << 10
	compJob.Compress = true
	for _, sj := range []struct {
		name string
		job  *mapreduce.Job
	}{
		{"shuffle/local-inmem", inmemJob},
		{"shuffle/local-spill", spillJob},
		{"shuffle/local-spill-comp", compJob},
	} {
		var ctr *mapreduce.Counters
		var jobErr error
		r := add(sj.name, 0, 0, func() {
			if _, c, err := (&mapreduce.Local{}).Run(sj.job, spillInput); err != nil {
				jobErr = err
			} else {
				ctr = c
			}
		})
		if jobErr != nil {
			return jobErr
		}
		r.ShuffleBytes = ctr.ShuffleBytes
		r.SpillBytes = ctr.SpillBytes
		r.CompressedBytes = ctr.CompressedBytes
		if raw := ctr.SpillBytes + ctr.CompressedBytes; raw > 0 && sj.job.Compress {
			r.CompressRatio = float64(ctr.SpillBytes) / float64(raw)
		}
	}

	// Frame codec round trip over one run's worth of records, plain and
	// through the flate wrapper; the ratio is compressed/raw.
	var wireErr error
	add("wire/encode", 0, 0, func() {
		if _, err := mapreduce.WireRoundTrip(runs[0]); err != nil && wireErr == nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return wireErr
	}
	var wireSize, rawSize int
	r := add("wire/encode-comp", 0, 0, func() {
		var err error
		if wireSize, rawSize, err = mapreduce.WireRoundTripOpts(runs[0], true); err != nil && wireErr == nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return wireErr
	}
	r.CompressedBytes = int64(rawSize - wireSize)
	if rawSize > 0 {
		r.CompressRatio = float64(wireSize) / float64(rawSize)
	}

	// End-to-end shuffle-heavy TCP job: many small pairs, 4 reducers,
	// 2 workers — the acceptance workload for the pipelined wire.
	nInput := 2048
	if quick {
		nInput = 512
	}
	input := make([]mapreduce.Pair, nInput)
	for i := range input {
		input[i] = mapreduce.Pair{Key: strconv.Itoa(i), Value: []byte{byte(i)}}
	}
	configs := []struct {
		name     string
		cfg      mapreduce.TCPConfig
		compress bool
	}{
		{"tcp/pipeline", mapreduce.TCPConfig{}, false},
		{"tcp/pipeline-comp", mapreduce.TCPConfig{}, true},
	}
	for _, c := range configs {
		job := shuffleJob("dascbench/" + c.name)
		job.Compress = c.compress
		mapreduce.Register(job)
		if err := benchTCPJob(add, c.name, c.cfg, job, input); err != nil {
			return err
		}
	}
	return nil
}

// shuffleJob emits 32 small records per input under rotating keys, so
// nearly all of the job's cost is shuffle traffic.
func shuffleJob(name string) *mapreduce.Job {
	const fanout = 32
	return &mapreduce.Job{
		Name:        name,
		NumReducers: 4,
		SplitSize:   64,
		Map: func(key string, value []byte, emit mapreduce.Emit) error {
			base, err := strconv.Atoi(key)
			if err != nil {
				return err
			}
			for i := 0; i < fanout; i++ {
				emit(fmt.Sprintf("k%04d", (base*fanout+i)%997), value)
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
	}
}

// benchTCPJob times job over a fresh 2-worker cluster in configuration
// cfg, tearing the cluster down afterwards.
func benchTCPJob(add addFunc, name string, cfg mapreduce.TCPConfig, job *mapreduce.Job, input []mapreduce.Pair) error {
	cfg.Addr = "127.0.0.1:0"
	cfg.MinWorkers = 2
	m, err := mapreduce.NewMasterTCP(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = m.Close() }()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A clean master shutdown surfaces as a nil or EOF return.
			_ = mapreduce.RunWorker(m.Addr())
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnectedWorkers() < 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("dascbench: %s workers did not join", name)
		}
		time.Sleep(time.Millisecond)
	}
	var runErr error
	var ctr *mapreduce.Counters
	r := add(name, 0, 0, func() {
		if _, c, err := m.Run(job, input); err != nil && runErr == nil {
			runErr = err
		} else {
			ctr = c
		}
	})
	if runErr != nil {
		return runErr
	}
	r.ShuffleBytes = ctr.ShuffleBytes
	r.CompressedBytes = ctr.CompressedBytes
	r.CompressNanos = ctr.CompressNanos
	if raw := ctr.WireBytesOut + ctr.WireBytesIn + ctr.CompressedBytes; job.Compress && raw > 0 {
		r.CompressRatio = float64(ctr.WireBytesOut+ctr.WireBytesIn) / float64(raw)
	}
	if err := m.Close(); err != nil {
		return err
	}
	wg.Wait()
	return nil
}

// sortedRuns builds nRuns key-sorted runs of size pairs each — the
// shape map tasks hand the merge shuffle.
func sortedRuns(nRuns, size int) [][]mapreduce.Pair {
	runs := make([][]mapreduce.Pair, nRuns)
	for r := range runs {
		run := make([]mapreduce.Pair, size)
		for i := range run {
			run[i] = mapreduce.Pair{
				Key:   fmt.Sprintf("k%04d", ((r*size+i)*2654435761)%997),
				Value: []byte{byte(i)},
			}
		}
		sort.SliceStable(run, func(x, y int) bool { return run[x].Key < run[y].Key })
		runs[r] = run
	}
	return runs
}
