package main

import (
	"fmt"
	"strings"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
	"prodigy/internal/workloads"
)

// quickFigures is the complete `prodigy-bench -quick` experiment set, in
// its order, as calls into the exp figure drivers.
var quickFigures = []struct {
	name string
	run  func(h *exp.Harness) error
}{
	{"table2", func(h *exp.Harness) error { _, err := h.Table2(); return err }},
	{"fig2", func(h *exp.Harness) error { _, err := h.Fig2(); return err }},
	{"fig4", func(h *exp.Harness) error { _, err := h.Fig4(); return err }},
	{"fig12", func(h *exp.Harness) error { _, err := h.Fig12(); return err }},
	{"fig13", func(h *exp.Harness) error { _, err := h.Fig13(); return err }},
	{"fig14", func(h *exp.Harness) error { _, err := h.Fig14(); return err }},
	{"fig15", func(h *exp.Harness) error { _, err := h.Fig15(); return err }},
	{"fig16", func(h *exp.Harness) error { _, err := h.Fig16(); return err }},
	{"fig17", func(h *exp.Harness) error { _, err := h.Fig17(); return err }},
	{"fig18", func(h *exp.Harness) error { _, err := h.Fig18(); return err }},
	{"fig19", func(h *exp.Harness) error { _, err := h.Fig19(); return err }},
	{"table3", func(h *exp.Harness) error { _, err := h.Table3(); return err }},
	{"ranged", func(h *exp.Harness) error { _, err := h.RangedFraction(); return err }},
	{"softwarepf", func(h *exp.Harness) error { _, err := h.SoftwarePF(); return err }},
	{"scalability", func(h *exp.Harness) error { _, err := h.Scalability([]int{1, 2, 4}); return err }},
	{"ablations", func(h *exp.Harness) error {
		for _, f := range []func() (*exp.AblationResult, error){
			h.AblationLookahead, h.AblationDropping, h.AblationRanged, h.AblationFillLevel,
		} {
			if _, err := f(); err != nil {
				return err
			}
		}
		return nil
	}},
}

// quickConfig is prodigy-bench -quick -j 2: tiny inputs, 2 simulated
// cores, shrunk caches, outputs verified, two workers.
func quickConfig() exp.Config {
	cfg := exp.Quick()
	cfg.Parallelism = 2
	return cfg
}

// runQuickSuite runs the whole figure set once on a fresh harness.
func (b *bench) runQuickSuite(tr *tracer, ref simRef) (*pass, error) {
	sink := &lineSink{tr: tr}
	cfg := quickConfig()
	cfg.JSONLog = sink
	h := exp.New(cfg)
	root := tr.begin(0, "bench", "quick-suite", "")
	start, cpu0 := time.Now(), selfCPU()
	for _, f := range quickFigures {
		id := tr.begin(root, "exp", f.name, "")
		sink.parent.Store(int64(id))
		err := f.run(h)
		tr.finish(id)
		if !b.op(err) {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	p := &pass{Wall: time.Since(start), CPU: selfCPU() - cpu0, h: h}
	tr.finish(root)
	raw, lines, err := sink.take()
	if err != nil {
		return nil, err
	}
	for _, s := range lines {
		b.op(ref.check(s))
	}
	p.Raw, p.lines = raw, lines
	return p, nil
}

func runQuick(b *bench) error {
	if b.traced {
		return runQuickTraced(b)
	}
	suites, setup, cancels, err := b.childPasses(simRef{}, 2)
	if err != nil {
		return err
	}
	var walls, cpus []float64
	for _, s := range suites {
		walls = append(walls, s.Wall.Seconds())
		cpus = append(cpus, s.CPU.Seconds())
	}
	b.wallInfo(median(walls), cancels)
	return b.setEndToEnd(endToEnd{lines: suites[len(suites)-1].lines, cpuS: median(cpus), setupS: median(setup),
		rssMB: peakRSS(suites), cancels: cancels})
}

// runQuickTraced makes five untraced/traced pairs of suites in this
// process, after two unmeasured ones that build the lazily built
// inputs, then measures every layer.
func runQuickTraced(b *bench) error {
	if err := b.warmInputs(); err != nil {
		return err
	}
	ref := simRef{}
	for i := 0; i < 2; i++ {
		if _, err := b.runQuickSuite(nil, ref); err != nil {
			return err
		}
	}
	var last *pass
	var runs []*exp.Run
	var walls, simMS []float64
	var plainCPU, tracedCPU time.Duration
	for i := 0; i < 10; i++ {
		if tracedPass(i) {
			ts, err := b.runQuickSuite(b.tr, ref)
			if err != nil {
				return err
			}
			tracedCPU += ts.CPU
			continue
		}
		s, err := b.runQuickSuite(nil, ref)
		if err != nil {
			return err
		}
		last, runs = s, b.replayRuns(s)
		plainCPU += s.CPU
		walls = append(walls, s.Wall.Seconds())
		simMS = append(simMS, s.simMS())
	}
	cancels, err := b.quickCancels(20)
	if err != nil {
		return err
	}
	spec, raw, lines, err := quickReplaySet(last.Raw, last.lines)
	if err != nil {
		return err
	}
	rs, err := b.replayPhase(exp.Quick(), spec, raw, lines, 1000, "-quick")
	if err != nil {
		return err
	}
	var ins []input
	for _, in := range inputsFor("quick-suite") {
		if !in.opts.HubSorted {
			ins = append(ins, in)
		}
	}
	q := exp.Quick()
	return b.setLayers(layers{
		lines: last.lines, simMS: median(simMS), wallMS: median(walls) * 1e3, workers: float64(quickConfig().Parallelism),
		runs: runs, cancels: cancels, overhead: overhead(plainCPU, tracedCPU), replay: rs,
		keyCfg: q, stored: lines, storedRaw: raw,
		inputs: ins, cacheCfg: func(cores int) cache.Config {
			c := *q.CacheOverride
			c.Cores = cores
			return c
		},
	})
}

// replayRuns looks up a suite's results for its none and prodigy
// default-knob cells in the suite's harness, and lets the harness and
// the results' workloads go, so that the suites after it do not run with
// them in memory.
func (b *bench) replayRuns(s *pass) []*exp.Run {
	var runs []*exp.Run
	for _, l := range s.lines {
		if l.Variant != "" || (l.Scheme != "none" && l.Scheme != "prodigy") {
			continue
		}
		algo, dataset, _ := strings.Cut(l.Label, "-")
		r, err := s.h.RunOne(algo, dataset, exp.Scheme(l.Scheme))
		if !b.op(err) {
			continue
		}
		r.W = nil
		runs = append(runs, r)
	}
	s.h = nil
	return runs
}

// quickReplaySet picks, from a suite's summary lines, the default-knob
// none and prodigy cells of every kernel on the quick datasets: the grid
// a contributor would re-request from prodigy-serve -quick.
func quickReplaySet(raw [][]byte, lines []exp.RunSummary) (farm.Spec, [][]byte, []exp.RunSummary, error) {
	spec := farm.Spec{Algos: workloads.AllAlgos, Datasets: exp.Quick().Datasets, Schemes: []string{"none", "prodigy"}}
	var outRaw [][]byte
	var outLines []exp.RunSummary
	for i, s := range lines {
		if s.Variant == "" && (s.Scheme == "none" || s.Scheme == "prodigy") {
			outRaw = append(outRaw, raw[i])
			outLines = append(outLines, s)
		}
	}
	cells := len(workloads.GraphAlgos)*len(spec.Datasets) + len(workloads.OtherAlgos)
	if want := cells * len(spec.Schemes); len(outLines) != want {
		return spec, nil, nil, fmt.Errorf("quick suite simulated %d of the %d replay cells", len(outLines), want)
	}
	return spec, outRaw, outLines, nil
}

// quickCancels calibrates each quick cancel cell's poll count with one
// full run, then interrupts it reps times at each of the pollIndices
// shares of that count.
func (b *bench) quickCancels(reps int) (cancelSet, error) {
	root := b.tr.begin(0, "bench", "cancel-probes", "")
	defer b.tr.finish(root)
	cfg := quickConfig()
	out := cancelSet{}
	for _, c := range cancelCells {
		polls, err := pollCount(cfg, c)
		if !b.op(err) {
			continue
		}
		for _, k := range b.pollIndices(polls, reps) {
			d, err := b.cancelProbe(cfg, c, k, root)
			if b.op(err) {
				out.add(c.Algo, d)
			}
		}
	}
	if len(out) != len(cancelCells) {
		return nil, fmt.Errorf("a cancel-probed cell had no successful probe")
	}
	return out, nil
}
