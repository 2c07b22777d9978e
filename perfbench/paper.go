package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
)

// paperCells is the paper-cells grid: five kernels at paper scale on the
// lj input (spmv and cg take none), each with no prefetcher and with
// Prodigy at an identical instruction count.
var paperCells = func() []exp.Cell {
	var out []exp.Cell
	for _, w := range []struct{ algo, dataset string }{{"bfs", "lj"}, {"pr", "lj"}, {"cc", "lj"}, {"spmv", ""}, {"cg", ""}} {
		for _, s := range []exp.Scheme{exp.SchemeNone, exp.SchemeProdigy} {
			out = append(out, exp.Cell{Algo: w.algo, Dataset: w.dataset, Scheme: s})
		}
	}
	return out
}()

// paperSpec is the same grid as a sweep request, for the replay phase.
var paperSpec = farm.Spec{Algos: []string{"bfs", "pr", "cc", "spmv", "cg"}, Datasets: []string{"lj"}, Schemes: []string{"none", "prodigy"}}

// paperConfig is the paper-scale harness: 8 cores, Table-I scaled caches,
// outputs verified after every cell, serial.
func paperConfig() exp.Config {
	cfg := exp.Default()
	cfg.Datasets = []string{"lj"}
	cfg.Verify = true
	cfg.Parallelism = 1
	return cfg
}

// runPaperPass simulates every paper cell once, in grid order, on a
// fresh harness (so nothing is memoized), timing each RunOne call. The
// interrupt source only counts polls; it never trips. The order is fixed
// because the pass's peak resident set depends on it: in seeded orders,
// single passes peaked anywhere from 144 to 235 MiB on the reference
// machine, in grid order from 178 to 196 MiB.
func (b *bench) runPaperPass(tr *tracer, ref simRef) (*pass, error) {
	sink := &lineSink{tr: tr}
	var polls atomic.Int64
	cfg := paperConfig()
	cfg.JSONLog = sink
	cfg.Interrupt = func() string { polls.Add(1); return "" }
	h := exp.New(cfg)
	p := &pass{}
	root := tr.begin(0, "bench", "paper-pass", "")
	start, cpu0 := time.Now(), selfCPU()
	for _, c := range paperCells {
		polls.Store(0)
		id := tr.begin(root, "exp", "RunOne", c.Algo+"-"+c.Dataset+"/"+string(c.Scheme))
		sink.parent.Store(int64(id))
		t0, c0 := time.Now(), selfCPU()
		run, err := h.RunOne(c.Algo, c.Dataset, c.Scheme)
		cc := cellCost{Cell: c, Wall: time.Since(t0), CPU: selfCPU() - c0, Polls: polls.Load()}
		tr.finish(id)
		if !b.op(err) {
			continue
		}
		p.Cells = append(p.Cells, cc)
		p.runs = append(p.runs, run)
	}
	p.Wall, p.CPU = time.Since(start), selfCPU()-cpu0
	tr.finish(root)
	raw, lines, err := sink.take()
	if err != nil {
		return nil, err
	}
	for i, s := range lines {
		if s.Abort != "" {
			continue // RunOne's error already counted the failure
		}
		b.op(ref.check(s))
		p.Raw, p.lines = append(p.Raw, raw[i]), append(p.lines, s)
	}
	return p, nil
}

func runPaper(b *bench) error {
	if b.traced {
		return runPaperTraced(b)
	}
	passes, setup, cancels, err := b.childPasses(simRef{}, 3)
	if err != nil {
		return err
	}
	// Host time: per-cell medians across passes, summed.
	cellWalls, cellCPU := map[exp.Cell][]float64{}, map[exp.Cell][]float64{}
	for _, p := range passes {
		for _, c := range p.Cells {
			cellWalls[c.Cell] = append(cellWalls[c.Cell], c.Wall.Seconds())
			cellCPU[c.Cell] = append(cellCPU[c.Cell], c.CPU.Seconds())
		}
	}
	var wall, cpu float64
	for _, c := range paperCells {
		wall += median(cellWalls[c])
		cpu += median(cellCPU[c])
	}
	last := passes[len(passes)-1]
	b.wallInfo(wall, cancels)
	return b.setEndToEnd(endToEnd{lines: last.lines, cpuS: cpu, setupS: median(setup), rssMB: peakRSS(passes), cancels: cancels})
}

// runPaperTraced makes two untraced/traced pairs of passes in this
// process, then measures every layer.
func runPaperTraced(b *bench) error {
	if err := b.warmInputs(); err != nil {
		return err
	}
	ref := simRef{}
	var last *pass
	var plainCPU, tracedCPU time.Duration
	for i := 0; i < 4; i++ {
		if tracedPass(i) {
			tp, err := b.runPaperPass(b.tr, ref)
			if err != nil {
				return err
			}
			tracedCPU += tp.CPU
			continue
		}
		p, err := b.runPaperPass(nil, ref)
		if err != nil {
			return err
		}
		// Keep the results but not their workloads, so that the passes
		// after this one do not run with them in memory.
		for _, r := range p.runs {
			r.W = nil
		}
		last = p
		plainCPU += p.CPU
	}
	cancels, err := b.paperCancels(pollsOf(last), 2)
	if err != nil {
		return err
	}
	rs, err := b.replayPhase(exp.Default(), paperSpec, last.Raw, last.lines, 1000)
	if err != nil {
		return err
	}
	return b.setLayers(layers{
		lines: last.lines, simMS: last.simMS(), wallMS: ms(last.Wall), workers: 1,
		runs: last.runs, cancels: cancels, overhead: overhead(plainCPU, tracedCPU), replay: rs,
		keyCfg: exp.Default(), stored: last.lines, storedRaw: last.Raw,
		inputs: inputsFor("paper-cells"), cacheCfg: cache.ScaledDefault,
	})
}

// pollsOf maps each of a pass's cells to its poll count.
func pollsOf(p *pass) map[exp.Cell]int64 {
	out := map[exp.Cell]int64{}
	for _, c := range p.Cells {
		out[c.Cell] = c.Polls
	}
	return out
}

// paperCancels interrupts each long-run-out cell reps times at each of
// the pollIndices shares of the poll count its full run took in a pass,
// and returns the trip-to-return costs.
func (b *bench) paperCancels(polls map[exp.Cell]int64, reps int) (cancelSet, error) {
	root := b.tr.begin(0, "bench", "cancel-probes", "")
	defer b.tr.finish(root)
	out := cancelSet{}
	for _, c := range cancelCells {
		for _, k := range b.pollIndices(polls[c], reps) {
			d, err := b.cancelProbe(paperConfig(), c, k, root)
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
