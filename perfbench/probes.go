package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/cpu"
	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
	"prodigy/internal/graph"
	"prodigy/internal/sim"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// input names one workload instance a benchmark workload simulates.
type input struct {
	algo, dataset string
	cores         int
	opts          workloads.Options
}

func (in input) label() string {
	if in.dataset == "" {
		return in.algo
	}
	return in.algo + "-" + in.dataset
}

// inputsFor lists the workload instances behind each benchmark
// workload: what its set-up builds and what the layer probes replay.
func inputsFor(workload string) []input {
	small := workloads.Options{Scale: graph.ScaleSmall}
	switch workload {
	case "paper-cells":
		var out []input
		for _, c := range paperCells {
			if c.Scheme == exp.SchemeNone {
				out = append(out, input{c.Algo, c.Dataset, 8, small})
			}
		}
		return out
	case "quick-suite":
		q := exp.Quick()
		var out []input
		for _, hub := range []bool{false, true} {
			for _, a := range workloads.GraphAlgos {
				for _, d := range q.Datasets {
					out = append(out, input{a, d, q.Cores, workloads.Options{Scale: q.Scale, HubSorted: hub}})
				}
			}
		}
		for _, a := range workloads.OtherAlgos {
			out = append(out, input{a, "", q.Cores, workloads.Options{Scale: q.Scale}})
		}
		return out
	}
	return nil
}

// runChild is the body of a child process (-child MODE). "setup" builds
// every input of the workload in a fresh process, whose dataset memo is
// empty, and prints the CPU time that took. "pass" builds them, then runs
// one untraced paper-cells pass or quick suite as a user's own process
// would, with nothing else held in memory, then one round of cancel
// probes, and prints it all as JSON on standard output. It returns the
// exit code.
func runChild(mode, workload string, seed int64) int {
	b := &bench{workload: workload, seed: seed, rng: rand.New(rand.NewSource(seed)), metrics: map[string]metric{}}
	var p *pass
	var err error
	switch {
	case mode == "setup" && len(inputsFor(workload)) > 0:
		cpu0 := selfCPU()
		if err = b.warmInputs(); err == nil {
			_, err = fmt.Println(int64(selfCPU() - cpu0))
		}
	case mode == "pass" && workload == "paper-cells":
		if err = b.warmInputs(); err == nil {
			p, err = b.runPaperPass(nil, simRef{})
		}
		if err == nil {
			p.PeakRSSMB, err = peakRSSMB()
		}
		if err == nil {
			p.runs = nil // the probes' peak memory is not the pass's
			p.Cancels, err = b.paperCancels(pollsOf(p), 1)
		}
	case mode == "pass" && workload == "quick-suite":
		if err = b.warmInputs(); err == nil {
			p, err = b.runQuickSuite(nil, simRef{})
		}
		if err == nil {
			p.PeakRSSMB, err = peakRSSMB()
		}
		if err == nil {
			p.h = nil // the probes' peak memory is not the suite's
			p.Cancels, err = b.quickCancels(1)
		}
	default:
		err = fmt.Errorf("no %q child for workload %q", mode, workload)
	}
	if err == nil && p != nil {
		p.Attempted, p.Failed = b.attempted, b.failed
		err = json.NewEncoder(os.Stdout).Encode(p)
	}
	if err == nil && p == nil && b.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", b.failed, b.attempted)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s child: %v\n", mode, err)
		return 1
	}
	return 0
}

// child runs this program once as a child (see runChild) for the run's
// workload, and returns its standard output.
func (b *bench) child(mode string, seed int64) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	cmd := exec.Command(self, "-child", mode, "-workload", b.workload, "-seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	return out.Bytes(), nil
}

// setupSamples runs n set-up children one after the other and appends
// the CPU time each spent building the inputs, in seconds, to xs. The
// callers spread the children over the measured phase: on the reference
// machine the host's speed drifted from second to second, and the
// median of fifteen quick-suite children taken back to back varied by
// 18% from one batch to the next.
func (b *bench) setupSamples(xs []float64, n int) ([]float64, error) {
	for i := 0; i < n; i++ {
		out, err := b.child("setup", b.seed)
		if err != nil {
			return nil, err
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup child output %q: %w", out, err)
		}
		xs = append(xs, time.Duration(ns).Seconds())
	}
	return xs, nil
}

// pass is one paper-cells pass or quick suite: its costs and summary
// lines and, when it ran in this process, its results. A "pass" child
// prints it as JSON.
type pass struct {
	// Wall and CPU cover the whole pass.
	Wall, CPU time.Duration
	// Cells are paper-cells' per-cell costs and poll counts.
	Cells []cellCost
	// PeakRSSMB is a child's peak resident set (VmHWM) at the end of the
	// pass, in MiB.
	PeakRSSMB float64
	// Cancels are a child's in-process cancel probes.
	Cancels cancelSet
	// Raw holds the summary lines of the cells that completed.
	Raw [][]byte
	// Attempted and Failed count a child's operations.
	Attempted, Failed int

	lines []exp.RunSummary
	// runs are the pass's results (paper-cells) and h its harness
	// (quick-suite); set only in the process that ran it.
	runs []*exp.Run
	h    *exp.Harness
}

// cellCost is one cell's RunOne in a pass: its wall and CPU time, and
// how many times the simulator polled its interrupt source.
type cellCost struct {
	Cell      exp.Cell
	Wall, CPU time.Duration
	Polls     int64
}

// simMS sums the pass's reported per-cell simulation wall times.
func (p *pass) simMS() float64 {
	var t float64
	for _, s := range p.lines {
		t += s.WallMS
	}
	return t
}

// childPasses runs passes, each in a fresh child process, until the
// time budget is used up, with setupPer set-up children after each. It
// checks every pass's simulated results against ref and returns the
// passes, the set-up samples and the cancel probes of every child. The
// probes are pooled across the children because the run-out of a cell
// differs from one process to the next: on the reference machine, the
// median of 200 quick-suite probes made in one process spread by 18–24%
// over five runs, and pooled across the suite children by 4–10%.
func (b *bench) childPasses(ref simRef, setupPer int) ([]*pass, []float64, cancelSet, error) {
	var passes []*pass
	var setup []float64
	cancels := cancelSet{}
	start := time.Now()
	for !b.pastBudget(start) || len(passes) == 0 {
		out, err := b.child("pass", b.rng.Int63())
		if err != nil {
			return nil, nil, nil, err
		}
		p := &pass{}
		if err := json.Unmarshal(out, p); err != nil {
			return nil, nil, nil, fmt.Errorf("pass child output: %w", err)
		}
		b.mu.Lock()
		b.attempted += p.Attempted
		b.failed += p.Failed
		b.mu.Unlock()
		for _, l := range p.Raw {
			var s exp.RunSummary
			if err := json.Unmarshal(l, &s); err != nil {
				return nil, nil, nil, fmt.Errorf("pass child summary line %q: %w", l, err)
			}
			b.op(ref.check(s))
			p.lines = append(p.lines, s)
		}
		for cell, cs := range p.Cancels {
			cancels[cell] = append(cancels[cell], cs...)
		}
		passes = append(passes, p)
		if setup, err = b.setupSamples(setup, setupPer); err != nil {
			return nil, nil, nil, err
		}
	}
	b.logf("%s: %d passes, one child process each, in %v", b.workload, len(passes), time.Since(start).Round(time.Millisecond))
	return passes, setup, cancels, nil
}

// peakRSS is the highest peak resident set of child passes, in MiB. A
// single pass's peak depends on which allocations overlap a garbage
// collection: paper-cells passes peaked at 194–196 MiB on the reference
// machine, with one in three lower, down to 178 MiB.
func peakRSS(passes []*pass) float64 {
	var m float64
	for _, p := range passes {
		m = max(m, p.PeakRSSMB)
	}
	return m
}

// warmInputs builds every input once in this process, so dataset
// generation happens before the first timed simulation.
func (b *bench) warmInputs() error {
	root := b.tr.begin(0, "bench", "setup", "")
	defer b.tr.finish(root)
	for _, in := range inputsFor(b.workload) {
		id := b.tr.begin(root, "workloads", "Build", in.label())
		_, err := workloads.Build(in.algo, in.dataset, in.cores, in.opts)
		b.tr.finish(id)
		if err != nil {
			return fmt.Errorf("building %s: %w", in.label(), err)
		}
	}
	return nil
}

// lineSink collects a harness's JSONL summary lines (exp.Config.JSONLog).
// In traced runs each line also becomes a "sim" span covering the cell's
// reported wall time, parented to whatever span is current.
type lineSink struct {
	tr     *tracer
	parent atomic.Int64

	mu    sync.Mutex
	raw   [][]byte
	lines []exp.RunSummary
	err   error
}

func (s *lineSink) Write(p []byte) (int, error) {
	now := time.Now()
	line := append([]byte(nil), bytes.TrimSuffix(p, []byte("\n"))...)
	var sum exp.RunSummary
	err := json.Unmarshal(line, &sum)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = errors.Join(s.err, fmt.Errorf("unparsable summary line %q: %w", line, err))
		return len(p), nil
	}
	s.raw = append(s.raw, line)
	s.lines = append(s.lines, sum)
	wall := time.Duration(sum.WallMS * float64(time.Millisecond))
	s.tr.record(int(s.parent.Load()), "sim", "simulate", cellID(sum), now.Add(-wall), now)
	return len(p), nil
}

// take returns and clears the collected lines.
func (s *lineSink) take() ([][]byte, []exp.RunSummary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, lines, err := s.raw, s.lines, s.err
	s.raw, s.lines, s.err = nil, nil, nil
	return raw, lines, err
}

// layerProbes times the layers below the harness on each input, outside
// any simulation: workloads.Build with datasets already generated,
// trace.Collect of the full instruction streams (then the workload's own
// Verify on the result), and a replay of every load, store and atomic,
// interleaved round-robin across cores, through a fresh
// cache.Hierarchy built from cacheCfg.
func (b *bench) layerProbes(ins []input, cacheCfg func(cores int) cache.Config) error {
	root := b.tr.begin(0, "bench", "layer-probes", "")
	defer b.tr.finish(root)
	var build, collect, replay time.Duration
	var instrs, accesses int64
	for _, in := range ins {
		id := b.tr.begin(root, "workloads", "Build", in.label())
		t0 := time.Now()
		w, err := workloads.Build(in.algo, in.dataset, in.cores, in.opts)
		build += time.Since(t0)
		b.tr.finish(id)
		if !b.op(err) {
			continue
		}
		id = b.tr.begin(root, "trace", "Collect", in.label())
		t0 = time.Now()
		streams := trace.Collect(w.Cores, w.Run)
		collect += time.Since(t0)
		b.tr.finish(id)
		if err := w.Verify(); err != nil {
			b.op(fmt.Errorf("%s: output after trace.Collect: %w", in.label(), err))
			continue
		}
		b.op(nil)
		for _, s := range streams {
			instrs += int64(len(s))
		}
		h, err := cache.New(cacheCfg(w.Cores))
		if !b.op(err) {
			continue
		}
		id = b.tr.begin(root, "cache", "Access-replay", in.label())
		t0 = time.Now()
		accesses += replayAccesses(h, streams)
		replay += time.Since(t0)
		b.tr.finish(id)
		streams = nil
		runtime.GC()
	}
	if instrs == 0 || accesses == 0 {
		return fmt.Errorf("layer probes replayed no instructions")
	}
	b.set("workloads.build_ms", "ms", ms(build))
	b.set("trace.instrs", "count", float64(instrs))
	b.set("trace.ns_per_instr", "ns", float64(collect.Nanoseconds())/float64(instrs))
	b.set("cache.ns_per_access", "ns", float64(replay.Nanoseconds())/float64(accesses))
	return nil
}

// replayAccesses drives every memory instruction of the streams through
// h, one instruction per core in turn, and returns the access count.
func replayAccesses(h *cache.Hierarchy, streams [][]trace.Instr) int64 {
	var n int64
	pos := make([]int, len(streams))
	for live := true; live; {
		live = false
		for c, s := range streams {
			if pos[c] >= len(s) {
				continue
			}
			live = true
			in := s[pos[c]]
			pos[c]++
			switch in.Kind {
			case trace.Load:
				h.Access(c, in.Addr, false)
				n++
			case trace.Store, trace.Atomic:
				h.Access(c, in.Addr, true)
				n++
			}
		}
	}
	return n
}

// storeProbe times the farm's durable result store on the workload's
// own summary lines: Put into fresh stores (append + fsync each), then
// Get of every key, then a reopen that must return every line
// byte-identically.
func (b *bench) storeProbe(keys []string, lines [][]byte) error {
	root := b.tr.begin(0, "bench", "store-probe", "")
	defer b.tr.finish(root)
	const stores, gets = 5, 200
	var puts, getNS []float64
	for rep := 0; rep < stores; rep++ {
		dir := filepath.Join(b.runDir, fmt.Sprintf("store-probe-%d", rep))
		st, err := farm.OpenStore(dir)
		if err != nil {
			return err
		}
		for i, k := range keys {
			id := b.tr.begin(root, "farm", "Store.Put", k[:12])
			t0 := time.Now()
			err := st.Put(k, lines[i])
			puts = append(puts, ms(time.Since(t0)))
			b.tr.finish(id)
			b.op(err)
		}
		id := b.tr.begin(root, "farm", "Store.Get", "")
		for g := 0; g < gets; g++ {
			for _, k := range keys {
				t0 := time.Now()
				_, ok := st.Get(k)
				getNS = append(getNS, float64(time.Since(t0).Nanoseconds()))
				if !ok {
					b.op(fmt.Errorf("store probe: Get(%s) missed after Put", k))
				}
			}
		}
		b.tr.finish(id)
		if err := st.Close(); err != nil {
			return err
		}
		re, err := farm.OpenStore(dir)
		if err != nil {
			return err
		}
		for i, k := range keys {
			got, ok := re.Get(k)
			if !ok || string(got) != string(lines[i]) {
				b.op(fmt.Errorf("store probe: reopened store lost or altered %s", k))
			} else {
				b.op(nil)
			}
		}
		if err := re.Close(); err != nil {
			return err
		}
	}
	b.set("farm.store_put_ms", "ms", median(puts))
	b.set("farm.store_get_us", "us", median(getNS)/1e3)
	return nil
}

// cellKeys resolves the durable-store keys of default-knob summary lines
// under cfg (the same keys prodigy-serve derives for these cells).
func cellKeys(cfg exp.Config, lines []exp.RunSummary) ([]string, error) {
	h := exp.New(cfg)
	keys := make([]string, len(lines))
	for i, s := range lines {
		algo, dataset, _ := strings.Cut(s.Label, "-")
		k, err := h.CellKey(algo, dataset, exp.Scheme(s.Scheme))
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// pollCount runs one cell to completion with an interrupt source that
// only counts polls, and returns how many times the simulator polled.
func pollCount(cfg exp.Config, c exp.Cell) (int64, error) {
	var polls atomic.Int64
	cfg.Interrupt = func() string { polls.Add(1); return "" }
	cfg.JSONLog = nil
	if _, err := exp.New(cfg).RunOne(c.Algo, c.Dataset, c.Scheme); err != nil {
		return 0, err
	}
	return polls.Load(), nil
}

// cost is one operation's wall-clock time and the CPU time (user +
// system, every thread) the process doing it spent meanwhile. On a
// shared host the wall clock also measures other tenants (steal); the CPU
// time does not.
type cost struct{ Wall, CPU time.Duration }

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cancelProbe runs one cell with an interrupt source that trips on the
// k-th poll with cause "canceled", and measures the trip to RunOne's
// return. The run must abort, and its summary line must carry the
// cause.
func (b *bench) cancelProbe(cfg exp.Config, c exp.Cell, k int64, parent int) (cost, error) {
	var polls atomic.Int64
	var tripWall time.Time
	var tripCPU time.Duration
	cfg.Interrupt = func() string {
		if n := polls.Add(1); n >= k {
			if n == k {
				tripWall, tripCPU = time.Now(), selfCPU()
			}
			return exp.AbortCanceled
		}
		return ""
	}
	sink := &lineSink{tr: b.tr}
	cfg.JSONLog = sink
	label := c.Algo
	if c.Dataset != "" {
		label += "-" + c.Dataset
	}
	// Collect the benchmark's own garbage first and hold collection off
	// until the probe returns, so that no GC cycle lands inside the
	// run-out window. Whether one did was down to allocation earlier in
	// the process, and on quick inputs one cycle costs about as much CPU
	// as the whole run-out: the median jumped between 1.2 and 2.4 ms.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	id := b.tr.begin(parent, "exp", "RunOne-cancel", label+"/"+string(c.Scheme))
	sink.parent.Store(int64(id))
	_, err := exp.New(cfg).RunOne(c.Algo, c.Dataset, c.Scheme)
	// The interrupt source runs on the simulating goroutine, which has
	// returned: its writes happen before this read.
	got := cost{Wall: time.Since(tripWall), CPU: selfCPU() - tripCPU}
	b.tr.finish(id)
	if err == nil {
		return cost{}, fmt.Errorf("cancel probe %s: completed before poll %d", label, k)
	}
	if !errors.Is(err, sim.ErrInterrupted) {
		return cost{}, fmt.Errorf("cancel probe %s: %w", label, err)
	}
	_, lines, serr := sink.take()
	if serr != nil {
		return cost{}, serr
	}
	if len(lines) != 1 || lines[0].Abort != exp.AbortCanceled {
		return cost{}, fmt.Errorf("cancel probe %s: want one summary line with abort %q, got %+v", label, exp.AbortCanceled, lines)
	}
	return got, nil
}

// cancelCells are the long-run-out cells the cancel probes of every
// workload interrupt.
var cancelCells = []exp.Cell{
	{Algo: "cc", Dataset: "lj", Scheme: exp.SchemeProdigy},
	{Algo: "cg", Scheme: exp.SchemeProdigy},
}

// pollIndices returns the polls at which the cancel probes of a cell
// whose full run polls `polls` times trip: reps probes at each of 5, 10,
// 15, 20 and 25% of the run, in seeded order. The run-out after an abort
// depends strongly on where in the kernel it lands, so the set of points
// is fixed and only their order is seeded: the median then compares
// across seeds and commits. Early points keep each probe cheap.
func (b *bench) pollIndices(polls int64, reps int) []int64 {
	var out []int64
	for r := 0; r < reps; r++ {
		for _, frac := range []float64{0.05, 0.10, 0.15, 0.20, 0.25} {
			out = append(out, int64(frac*float64(polls))+1)
		}
	}
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// modelCounts reports the deterministic per-layer counts of a set of
// simulation results (none and prodigy cells of one workload).
func (b *bench) modelCounts(runs []*exp.Run) error {
	var cycles, retired, total, accesses, l1hits, mem, dramReq float64
	var tlb, util float64
	var stall [4]float64
	var q sim.PrefetchQuality
	var proRetired float64
	n := 0
	for _, r := range runs {
		if r.Scheme != exp.SchemeNone && r.Scheme != exp.SchemeProdigy {
			continue
		}
		n++
		res := r.Res
		cycles += float64(res.Cycles)
		retired += float64(res.Agg.Retired)
		total += float64(res.Agg.Total())
		for i, k := range []cpu.StallKind{cpu.DRAMStall, cpu.CacheStall, cpu.BranchStall, cpu.DependencyStall} {
			stall[i] += float64(res.Agg.Cycles[k])
		}
		accesses += float64(res.Cache.DemandAccesses)
		l1hits += float64(res.Cache.DemandL1Hits)
		mem += float64(res.Cache.DemandMem)
		dramReq += float64(res.DRAM.Requests)
		tlb += res.TLBMissRate
		util += res.DRAMUtilization
		if r.Scheme == exp.SchemeProdigy {
			q.Add(res.PFQAgg)
			proRetired += float64(res.Agg.Retired)
		}
	}
	if n == 0 || cycles == 0 || total == 0 || accesses == 0 || proRetired == 0 {
		return fmt.Errorf("model counts: no none/prodigy results")
	}
	b.set("cpu.ipc", "instr/cycle", retired/cycles)
	for i, name := range []string{"dram", "cache", "branch", "dep"} {
		b.set("cpu.stall."+name+"_frac", "ratio", stall[i]/total)
	}
	b.set("cache.accesses_per_kinstr", "count", accesses/retired*1e3)
	b.set("cache.l1_miss_frac", "ratio", 1-l1hits/accesses)
	b.set("cache.mem_frac", "ratio", mem/accesses)
	b.set("tlb.miss_rate", "ratio", tlb/float64(n))
	b.set("dram.requests_per_kinstr", "count", dramReq/retired*1e3)
	b.set("dram.util", "ratio", util/float64(n))
	b.set("core.prodigy.issued_per_kinstr", "count", float64(q.Issued)/proRetired*1e3)
	b.set("core.prodigy.timeliness", "ratio", q.Timeliness())
	dropped := 0.0
	if q.Issued+q.Dropped > 0 {
		dropped = float64(q.Dropped) / float64(q.Issued+q.Dropped)
	}
	b.set("core.prodigy.dropped_frac", "ratio", dropped)
	return nil
}
