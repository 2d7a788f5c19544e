// Command dascperf is the repository's repeatable benchmark of DASC. It
// builds one workload's input from a seed, calls the clustering driver
// repeatedly for a fixed time, checks every output and prints the
// end-to-end metrics as medians over the repetitions. With --trace 1 it
// instead runs the per-layer breakdown: one driver call through a
// span-recording executor, plus a replay of the pipeline through the
// public layer functions with one span per layer and bucket.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash dascperf/run.sh --workload blobs-exact --seed 1 --seconds 20 --trace 0
//	bash dascperf/run.sh --workload all --seed 1 --seconds 20
//	bash dascperf/run.sh --workload wiki-sharded --trace 1 --cpuprofile cpu.pprof
//	bash dascperf/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// minCalls is the fewest timed driver calls a run makes on each input,
// even when the time budget runs out first.
const minCalls = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the result object printed as the last line of a run.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as stored in a result file (--out) and read by
// the comparator: the printed result plus the workload, the seed, the
// sample counts and the bucket summary.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Buckets   *bucketSummary    `json:"buckets,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

func (r *runRecord) set(name string, value float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
		r.Samples = map[string]int{}
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
	if samples > 0 {
		r.Samples[name] = samples
	}
}

func (r *runRecord) fail(format string, args ...interface{}) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	out        string
	cpuProfile string
	memProfile string
	execTrace  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.StringVar(&o.out, "out", "", "append the run record(s) to this JSON-lines result file")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "traced run: write a CPU profile of the traced calls")
	flag.StringVar(&o.memProfile, "memprofile", "", "traced run: write a heap profile after the traced calls")
	flag.StringVar(&o.execTrace, "exectrace", "", "traced run: write a runtime/trace execution trace of the traced calls")
	flag.Parse()
	if err := validate(&o); err != nil {
		fmt.Fprintln(os.Stderr, "dascperf:", err)
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	os.Exit(runOne(o))
}

func validate(o *options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.trace == 0 && (o.cpuProfile != "" || o.memProfile != "" || o.execTrace != "") {
		return fmt.Errorf("--cpuprofile, --memprofile and --exectrace need --trace 1")
	}
	if o.workload == "all" && (o.cpuProfile != "" || o.memProfile != "" || o.execTrace != "") {
		return fmt.Errorf("--cpuprofile, --memprofile and --exectrace need a single --workload")
	}
	if o.workload != "all" {
		if _, err := findWorkload(o.workload); err != nil {
			return err
		}
	}
	return nil
}

// workDir is the directory every file the benchmark writes lives
// under, relative to the checkout it runs in.
const workDir = ".bench_build"

// runOne runs one workload in this process and prints its result.
func runOne(o options) int {
	wl, _ := findWorkload(o.workload)
	tmp, err := filepath.Abs(filepath.Join(workDir, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err == nil {
		tmp, err = os.MkdirTemp(tmp, wl.name+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(tmp) }()
	// Spill runs and any other temp files of the drivers go to the
	// run's own directory inside the checkout.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		fmt.Fprintln(os.Stderr, "dascperf:", err)
		return 1
	}

	fmt.Printf("dascperf %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		wl.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	var rec *runRecord
	if o.trace == 1 {
		rec, err = runTraced(wl, o, tmp)
	} else {
		rec, err = runUntraced(wl, o.seed, o.seconds, tmp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dascperf: %s: %v\n", wl.name, err)
		return 1
	}
	for _, e := range rec.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "dascperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(lastLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// runUntraced is the end-to-end run: build the workload's inputs, then
// call the driver on them in turn until the time budget is spent, with
// every output checked.
func runUntraced(wl *workload, seed int64, seconds float64, tmp string) (*runRecord, error) {
	rec := &runRecord{Workload: wl.name, Seed: seed}
	envs, setupS, err := setupAll(wl, seed, tmp)
	if err != nil {
		return nil, err
	}
	defer closeAll(envs)

	type input struct {
		times, rss []float64
		sums       []bucketSummary
		digest     string
		labels     []int
	}
	ins := make([]input, len(envs))
	start := time.Now()
	for call := 0; ; call++ {
		i := call % len(envs)
		e, in := envs[i], &ins[i]
		// Each call starts from a settled heap: garbage collected twice,
		// so sync.Pool scratch of the previous call is dropped too, and
		// returned to the OS. The call's RSS is its peak above that.
		runtime.GC()
		debug.FreeOSMemory()
		base, err := resetPeakRSS()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		res, err := e.cluster(e.executor())
		d := time.Since(t).Seconds()
		peak, rerr := procStatusMB("VmHWM")
		if rerr != nil {
			return nil, rerr
		}
		rss := peak - base
		rec.Attempted++
		if err == nil {
			err = checkResult(res, e.n)
		}
		if err == nil && in.digest != "" && labelsDigest(res.Labels) != in.digest {
			err = fmt.Errorf("labels differ from the first call's on the same input")
		}
		if err != nil {
			rec.Failed++
			rec.fail("call %d (input %d): %v", rec.Attempted, i, err)
		} else {
			if in.digest == "" {
				in.digest, in.labels = labelsDigest(res.Labels), res.Labels
			}
			in.times = append(in.times, d)
			in.rss = append(in.rss, rss)
			in.sums = append(in.sums, summarizeBuckets(res, e.n))
		}
		if i == len(envs)-1 && call+1 >= minCalls*len(envs) && time.Since(start).Seconds() >= seconds {
			break
		}
	}

	var clusterS, ingestS, nmi, recall, rss []float64
	calls := 0
	for i, e := range envs {
		in := ins[i]
		ingestS = append(ingestS, e.ingest.seconds)
		if in.labels == nil {
			continue
		}
		rss = append(rss, median(in.rss))
		calls += len(in.times)
		clusterS = append(clusterS, median(in.times))
		n, r, err := accuracy(e.truth, in.labels)
		if err != nil {
			return nil, err
		}
		nmi, recall = append(nmi, n), append(recall, r)
		if wl.kind == kindShipped {
			// The shipped driver must reproduce the in-process driver's
			// labels on the same data and configuration.
			ref, err := refCluster(e)
			if err == nil && labelsDigest(ref.Labels) != in.digest {
				err = fmt.Errorf("labels differ from core.Cluster's")
			}
			if err != nil {
				rec.fail("input %d: reference core.Cluster: %v", i, err)
				rec.Failed += len(in.times)
			}
		}
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0 && len(clusterS) == len(envs)
	rec.set("cluster_s", mean(clusterS), "s", calls)
	rec.set("ingest_s", mean(ingestS), "s", len(ingestS))
	rec.set("setup_s", median(setupS), "s", len(setupS))
	rec.set("peak_rss_mb", mean(rss), "MB", calls)
	rec.set("nmi", mean(nmi), "ratio", len(nmi))
	rec.set("pair_recall", mean(recall), "ratio", len(recall))
	if in := ins[0]; in.labels != nil {
		rec.Buckets = medianRunSummary(in.times, in.sums)
	}
	printUntracedSummary(rec, envs)
	for i, in := range ins {
		fmt.Printf("  input %d: cluster_s per call:", i)
		for _, t := range in.times {
			fmt.Printf(" %.4f", t)
		}
		fmt.Printf("; setup_s %.4f\n", setupS[i])
	}
	return rec, nil
}

// refCluster runs the in-process driver on the env's data and config.
func refCluster(e *env) (*core.Result, error) {
	cfg := e.cfg
	cfg.Workers = e.workers
	return core.Cluster(e.points, cfg)
}

// setupAll builds the run's inputs, one per inputSeed, and returns the
// set-up time of each.
func setupAll(wl *workload, seed int64, tmp string) ([]*env, []float64, error) {
	var envs []*env
	var setupS []float64
	for i := 0; i < wl.inputs; i++ {
		t := time.Now()
		e, err := setup(wl, inputSeed(seed, i), tmp)
		if err != nil {
			closeAll(envs)
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		envs = append(envs, e)
	}
	return envs, setupS, nil
}

func closeAll(envs []*env) {
	for _, e := range envs {
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "dascperf: close:", err)
		}
	}
}

// medianRunSummary returns the bucket summary of the call whose time is
// the median (the lower middle one for an even count), with that time.
func medianRunSummary(times []float64, sums []bucketSummary) *bucketSummary {
	idx := make([]int, len(times))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
	mid := idx[(len(idx)-1)/2]
	s := sums[mid]
	s.CallSeconds = times[mid]
	return &s
}

func printUntracedSummary(rec *runRecord, envs []*env) {
	fmt.Printf("  inputs=%d N=%d workers=%d attempted=%d failed=%d\n", len(envs), envs[0].n, envs[0].workers, rec.Attempted, rec.Failed)
	for _, name := range []string{"cluster_s", "ingest_s", "setup_s", "peak_rss_mb", "nmi", "pair_recall"} {
		m := rec.Metrics[name]
		fmt.Printf("  %-12s %12.6g %-5s (%d samples)\n", name, m.Value, m.Unit, rec.Samples[name])
	}
	b := rec.Buckets
	if b == nil {
		return
	}
	wall := b.CallSeconds
	fmt.Printf("  input 0, median call %.3fs: buckets=%d largest=%d rows (%.1f%% of N) k=%d solver=%s solve=%.3fs (%.0f%% of the call) p50=%d p99=%d gini=%.3f\n",
		wall, b.Count, b.MaxSize, 100*b.MaxShare, b.LargestK, b.LargestSolver, b.LargestSolve,
		100*b.LargestSolve/wall, b.P50, b.P99, b.Gini)
	fmt.Printf("  critical path: bucket %016x size=%d k=%d solver=%s solve=%.3fs (%.0f%% of the call); solve sum %.3fs = %.2fx the call\n",
		b.Critical.Signature, b.Critical.Size, b.Critical.K, b.Critical.Solver, b.Critical.Seconds,
		100*b.Critical.Seconds/wall, b.SolveSum, b.SolveSum/wall)
}

// resetPeakRSS resets this process's resident-set high-water mark
// (VmHWM) to its current resident set through /proc/self/clear_refs
// and returns that resident set (VmRSS) in MiB. VmHWM read later, less
// the returned value, is the peak growth of what ran in between. An
// error means the mark cannot be reset, and the peak would silently
// become the process-lifetime one.
func resetPeakRSS() (float64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	return procStatusMB("VmRSS")
}

// procStatusMB reads one kB-valued field of /proc/self/status, such as
// VmRSS or VmHWM, in MiB.
func procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/self/status %s: %w", field, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/self/status has no %s value", field)
}

// appendRecord appends a run to a JSON-lines result file.
func appendRecord(path string, rec *runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each in a fresh process so that peak RSS
// is the workload's own, prints a table of every metric and a combined
// result line, and fails if any workload failed its checks.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf:", err)
		return 1
	}
	type row struct {
		workload string
		res      lastLine
	}
	var rows []row
	combined := lastLine{Correct: true, Metrics: map[string]metric{}}
	status := 0
	for _, wl := range workloads {
		args := []string{"--workload", wl.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace)}
		if o.out != "" {
			args = append(args, "--out", o.out)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, perr := parseLastLine(stdout.Bytes())
		if perr != nil {
			fmt.Fprintf(os.Stderr, "dascperf: %s: %v\n", wl.name, errors.Join(runErr, perr))
			combined.Correct = false
			status = 1
			continue
		}
		if runErr != nil || !res.Correct {
			status = 1
		}
		rows = append(rows, row{wl.name, res})
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for name, m := range res.Metrics {
			combined.Metrics[wl.name+"/"+name] = m
		}
	}
	fmt.Printf("\n%-14s %-34s %14s  %s\n", "workload", "metric", "value", "unit")
	for _, r := range rows {
		for _, name := range sortedKeys(r.res.Metrics) {
			m := r.res.Metrics[name]
			fmt.Printf("%-14s %-34s %14.6g  %s\n", r.workload, name, m.Value, m.Unit)
		}
		fmt.Printf("%-14s %-34s %14v\n", r.workload, "correct", r.res.Correct)
	}
	if combined.Attempted == 0 {
		combined.Attempted = 1
		combined.Failed = 1
		combined.Correct = false
		status = 1
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseLastLine decodes the result object on the last non-empty line.
func parseLastLine(out []byte) (lastLine, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
