// Command perfbench is the repository benchmark. It drives one named
// workload against the simulator, the experiment harness and the
// prodigy-serve sweep service, checks that every output is correct, and
// prints one JSON result line (the last line of standard output):
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics. Every layer is measured
// from outside: the benchmark times its own calls into each layer's
// public functions (workloads.Build, trace.Collect, cache.Hierarchy.Access,
// exp.Harness.RunOne and the figure drivers, farm.Store, the prodigy-serve
// HTTP API) and records a span around each call in traced runs. No
// counter or hook is added to the program itself. Untraced runs make
// each set-up measurement, and each paper-cells pass or quick suite, in
// a child process of this program (-child).
//
// Run it through run.sh, which builds this module and prodigy-serve from
// the checkout:
//
//	bash perfbench/run.sh --workload paper-cells --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// workloadFns maps each benchmark workload to its driver.
var workloadFns = map[string]func(*bench) error{
	"paper-cells": runPaper,
	"quick-suite": runQuick,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings, its failure accounting and its
// metrics.
type bench struct {
	workload string
	seed     int64
	rng      *rand.Rand
	seconds  time.Duration
	// traced is -trace 1: per-layer metrics, spans and layer probes.
	traced bool
	// tr records spans; nil in untraced runs (every tracer method is
	// nil-safe and then records nothing).
	tr       *tracer
	serveBin string
	// runDir is this run's scratch directory (stores, server caches),
	// removed when the run ends.
	runDir  string
	workDir string

	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]metric
	servers   []*server
}

// op accounts one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if b.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
	return false
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// logf reports progress on standard error.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// pastBudget reports whether the measured phase has used its time budget.
func (b *bench) pastBudget(start time.Time) bool { return time.Since(start) >= b.seconds }

func main() {
	workload := flag.String("workload", "", "workload to run: paper-cells or quick-suite")
	seed := flag.Int64("seed", 1, "workload seed: the order of the cancel probes")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	serveBin := flag.String("serve-bin", "", "path to the prodigy-serve binary")
	workDir := flag.String("work-dir", ".bench_build", "directory for scratch files and span dumps")
	child := flag.String("child", "", "run as a child process: setup (build the workload's inputs) or pass (run one pass of it)")
	flag.Parse()

	if *child != "" {
		os.Exit(runChild(*child, *workload, *seed))
	}
	run, ok := workloadFns[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || *serveBin == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -serve-bin BIN --workload paper-cells|quick-suite --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runDir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		rng:      rand.New(rand.NewSource(*seed)),
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceMode == 1,
		serveBin: *serveBin,
		runDir:   runDir,
		workDir:  *workDir,
		metrics:  map[string]metric{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	err = run(b)
	b.stopServers()
	if b.traced && err == nil {
		err = b.finishTrace()
	}
	if rerr := os.RemoveAll(runDir); rerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch dir:", rerr)
	}
	if err == nil {
		err = spec.check(b.metrics, b.traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-36s %14.6g (%d failed of %d attempted)\n", "fail_ratio",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchSpec is the part of BENCHMARK.json the benchmark checks its output
// against, so the printed metric set and units never drift from it.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// check verifies that got holds exactly the spec's metrics for the mode,
// each with its declared unit.
func (s *benchSpec) check(got map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	if len(got) != len(want) {
		var extra []string
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for n := range got {
			if !names[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured %d metrics, BENCHMARK.json lists %d (not listed: %v)", len(got), len(want), extra)
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
	}
	return nil
}

// finishTrace writes the span dump and reports per-layer self time.
func (b *bench) finishTrace() error {
	path := filepath.Join(b.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return err
	}
	b.logf("spans written to %s", path)
	self := b.tr.selfTime()
	for _, layer := range spanLayers {
		b.set(layer+".self_ms", "ms", ms(self[layer]))
	}
	return nil
}
