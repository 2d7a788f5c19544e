package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/matrix"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// compareMain lines up two result files (JSON lines written by --out)
// by workload and metric, takes the median of each side's runs, and
// flags every end-to-end metric that moved beyond its bound in
// BENCHMARK.json. It only reports: the exit code is 0 unless an input
// cannot be read.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dascperf compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf compare:", err)
		return 2
	}
	oldRuns, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf compare:", err)
		return 2
	}
	newRuns, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dascperf compare:", err)
		return 2
	}
	writeComparison(os.Stdout, spec, oldRuns, newRuns)
	return 0
}

func readSpec(path string) (map[string]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]specMetric{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		out[m.Name] = m
	}
	return out, nil
}

// readRuns reads a JSON-lines result file into values per
// workload/metric key, one value per run.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: record has no workload", path, line)
		}
		if !r.Correct {
			out[r.Workload+"\x00correct"] = append(out[r.Workload+"\x00correct"], 0)
		}
		for _, name := range sortedKeys(r.Metrics) {
			key := r.Workload + "\x00" + name
			out[key] = append(out[key], r.Metrics[name].Value)
		}
	}
	return out, sc.Err()
}

// writeComparison prints one row per workload x metric present on both
// sides: the medians, the relative change and, for the end-to-end
// metrics (those with a bound), whether the move is a regression or an
// improvement beyond it. Per-layer rows carry no verdict.
func writeComparison(w io.Writer, spec map[string]specMetric, oldRuns, newRuns map[string][]float64) {
	keys := make([]string, 0, len(newRuns))
	for k := range newRuns {
		_, both := oldRuns[k]
		if both || strings.HasSuffix(k, "\x00correct") {
			keys = append(keys, k)
		}
	}
	for k := range oldRuns {
		if _, ok := newRuns[k]; !ok && strings.HasSuffix(k, "\x00correct") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-14s %-34s %5s %14s %14s %9s %7s  %s\n", "workload", "metric", "runs", "old", "new", "change", "bound", "verdict")
	flagged := 0
	for _, k := range keys {
		workload, name, _ := strings.Cut(k, "\x00")
		if name == "correct" {
			fmt.Fprintf(w, "%-14s %-34s failed runs: %d old, %d new\n", workload, name, len(oldRuns[k]), len(newRuns[k]))
			flagged++
			continue
		}
		m, known := spec[name]
		if !known {
			continue
		}
		o, n := median(oldRuns[k]), median(newRuns[k])
		change := math.NaN()
		if !matrix.IsZero(o) {
			change = (n - o) / math.Abs(o)
		}
		bound, verdict := "-", ""
		if m.Bound != nil {
			bound = fmt.Sprintf("%.3f", *m.Bound)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			switch {
			case math.IsNaN(change):
				verdict = "no baseline"
			case worse > *m.Bound:
				verdict = "REGRESSION"
				flagged++
			case -worse > *m.Bound:
				verdict = "improved"
			default:
				verdict = "within bound"
			}
		}
		fmt.Fprintf(w, "%-14s %-34s %2d/%-2d %14.6g %14.6g %+8.1f%% %7s  %s\n",
			workload, name, len(oldRuns[k]), len(newRuns[k]), o, n, 100*change, bound, verdict)
	}
	fmt.Fprintf(w, "%d flagged\n", flagged)
}
