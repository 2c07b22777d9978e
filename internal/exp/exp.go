// Package exp is the benchmark harness: one driver per table and figure
// of the paper's evaluation (Section VI). Each driver runs the required
// (workload × prefetcher) matrix on the simulator, reduces the results the
// way the paper does, and renders a paper-style table.
//
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured values.
package exp

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/dig"
	"prodigy/internal/energy"
	"prodigy/internal/graph"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/sim"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// Scheme names a prefetching configuration.
type Scheme string

// The evaluated schemes (Section VI-C).
const (
	SchemeNone     Scheme = "none"
	SchemeStride   Scheme = "stride"
	SchemeGHB      Scheme = "ghb-gdc"
	SchemeIMP      Scheme = "imp"
	SchemeAJ       Scheme = "aj"
	SchemeDroplet  Scheme = "droplet"
	SchemeSoftware Scheme = "software-pf"
	SchemeProdigy  Scheme = "prodigy"
)

// Config parameterizes a harness.
type Config struct {
	// Cores is the simulated core count (Table I: 8).
	Cores int
	// Scale selects dataset sizing.
	Scale graph.Scale
	// Datasets restricts the graph inputs (default: all five).
	Datasets []string
	// PFHREntries overrides Prodigy's PFHR file size (default 16).
	PFHREntries int
	// Verify re-checks workload outputs after every run (slower; on in
	// tests).
	Verify bool
	// CacheOverride replaces the default scaled hierarchy (Quick shrinks
	// the caches along with the tiny datasets so the working-set-to-LLC
	// ratio of DESIGN.md §2 is preserved at test scale).
	CacheOverride *cache.Config
	// Parallelism bounds how many simulations a figure sweep runs
	// concurrently. 0 means GOMAXPROCS; 1 restores fully serial execution.
	// Results are memoized by grid key, never by completion order, so every
	// figure table is byte-identical at any parallelism (see
	// docs/ARCHITECTURE.md for why runs are independent).
	Parallelism int
	// MaxCycles bounds simulated cycles per run (sim.Config.MaxCycles);
	// 0 keeps the simulator's large default.
	MaxCycles int64
	// RunTimeout aborts any single simulation exceeding this wall-clock
	// budget, converting it into a tagged error exactly like the simulator's
	// MaxCycles guard (the run's goroutine exits cooperatively). 0 disables.
	RunTimeout time.Duration
	// Interrupt, when set, is polled during every simulation ahead of the
	// RunTimeout watchdog: returning a non-empty cause aborts the run with
	// sim.ErrInterrupted and tags its JSONL abort record with that cause
	// (AbortCanceled when a sweep server cancels in-flight cells,
	// AbortShutdown while draining). Return "" to let the run continue.
	Interrupt func() (cause string)
	// ReleaseWorkloads drops each memoized run's workload reference (the
	// functional memory image, dataset arrays, and instruction-stream
	// closures) once the run has completed and — when Verify is set — been
	// verified. Figure reductions never read Run.W, so one-shot drivers
	// lose nothing; a long-running sweep service must set this or every
	// dataset it ever simulated stays pinned in the memo cache.
	ReleaseWorkloads bool
	// Progress, when non-nil, receives one-line sweep progress reports
	// (runs completed/total, ETA, slowest run so far) every
	// ProgressInterval, plus a final summary per sweep.
	Progress io.Writer
	// ProgressInterval is the progress reporting period (default 5s).
	ProgressInterval time.Duration
	// JSONLog, when non-nil, receives one JSON object per line for every
	// simulation executed (cycles, CPI stack, wall time, ...) for
	// machine-readable trend tracking. Cached replays are not re-emitted.
	// Aborted runs are also logged, tagged with which guard killed them
	// (timeout, max-cycles, deadlock).
	JSONLog io.Writer
	// CellStart, when non-nil, is invoked by a sweep worker the moment it
	// picks a cell off the queue, just before its simulation (or
	// memo-cache wait) begins; the label matches the one later emitted on
	// the cell's JSONLog line. The sweep service (internal/exp/farm) uses
	// it for queue-depth and in-flight telemetry. It is called from
	// worker goroutines concurrently and must not block.
	CellStart func(label string)
	// Obs, when non-nil, builds a per-run observability recorder (see
	// internal/obs: interval metrics, timeline trace, prefetch ledger)
	// keyed by the run's "label/scheme" cell name. The returned close
	// function is called after the run; its error fails the run. Return a
	// nil recorder to skip instrumentation for a cell.
	Obs func(cell string) (*obs.Recorder, func() error, error)
}

// Default returns the paper configuration at benchmark scale.
func Default() Config {
	return Config{Cores: 8, Scale: graph.ScaleSmall, Datasets: graph.DatasetNames()}
}

// Quick returns a reduced configuration for unit tests: tiny datasets,
// fewer cores, verification on, and caches shrunk 8x further so tiny
// working sets still exceed the LLC.
func Quick() Config {
	c := cache.Config{
		LineSize: 64,
		L1Size:   1 << 10, L1Assoc: 4,
		L2Size: 4 << 10, L2Assoc: 8,
		L3Size: 16 << 10, L3Assoc: 16,
		L1Lat: 2, L2Lat: 6, L3Lat: 30,
	}
	return Config{
		Cores: 2, Scale: graph.ScaleTiny,
		Datasets:      []string{"po", "lj"},
		Verify:        true,
		CacheOverride: &c,
	}
}

// Run is one simulation outcome plus its workload context.
type Run struct {
	Label  string
	Scheme Scheme
	Res    sim.Result
	W      *workloads.Workload
	// MissesInDIG counts the LLC misses (Res.Cache.DemandMem) that fall
	// inside the DIG ranges (Fig. 13).
	MissesInDIG uint64
	// Wall is the host wall-clock time the simulation took (progress and
	// JSON reporting; it has no bearing on simulated results).
	Wall time.Duration
}

// Speedup of other relative to this run (this run as baseline).
func (r *Run) Speedup(other *Run) float64 {
	if other.Res.Cycles == 0 {
		return 0
	}
	return float64(r.Res.Cycles) / float64(other.Res.Cycles)
}

// DRAMStallFrac returns the DRAM-stall share of aggregate cycles.
func (r *Run) DRAMStallFrac() float64 {
	total := r.Res.Agg.Total()
	if total == 0 {
		return 0
	}
	return float64(r.Res.Agg.Cycles[cpu.DRAMStall]) / float64(total)
}

// Harness runs and memoizes (workload, scheme) simulations.
type Harness struct {
	Cfg   Config
	mu    sync.Mutex
	cache map[string]*runEntry
	// jsonMu serializes JSONLog writes from concurrent workers.
	jsonMu sync.Mutex
	// errw overrides the stderr destination of internal failure reports
	// (tests capture it; nil means os.Stderr).
	errw io.Writer
	// mshrOverride adjusts the per-core prefetch MSHR cap (tests).
	mshrOverride int
}

// runEntry memoizes one grid cell. The per-entry Once gives run()
// singleflight semantics: when parallel sweeps (or overlapping figures)
// request the same cell concurrently, exactly one goroutine simulates it
// and the rest block until the result is ready.
type runEntry struct {
	once sync.Once
	run  *Run
	err  error
}

// New builds a harness.
func New(cfg Config) *Harness {
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = graph.DatasetNames()
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = 5 * time.Second
	}
	return &Harness{Cfg: cfg, cache: map[string]*runEntry{}}
}

// runVariant captures non-default machine knobs for ablations.
type runVariant struct {
	pfhr      int
	hubSorted bool
	lookahead int
	numSeqs   int
	noRanged  bool
	singleSeq bool
	fillL2    bool
	cores     int
}

// prefetchConfig is the resolved configuration of one scheme's
// prefetcher: at most one field is set, none for SchemeNone and
// SchemeSoftware. simulate builds the prefetcher from it and CellKey
// hashes it, so the cache key covers exactly what the machine is built
// from.
type prefetchConfig struct {
	Stride  *prefetch.StrideConfig  `json:"stride,omitempty"`
	GHB     *prefetch.GHBConfig     `json:"ghb,omitempty"`
	IMP     *prefetch.IMPConfig     `json:"imp,omitempty"`
	Droplet *prefetch.DropletConfig `json:"droplet,omitempty"`
	// AJ is the single-sequence Prodigy form A&J reuses per chain.
	AJ      *core.Config `json:"aj,omitempty"`
	Prodigy *core.Config `json:"prodigy,omitempty"`
}

// schemePrefetch resolves the prefetcher configuration of scheme under
// variant v.
func (h *Harness) schemePrefetch(scheme Scheme, v runVariant) (prefetchConfig, error) {
	pfhr := h.Cfg.PFHREntries
	if v.pfhr > 0 {
		pfhr = v.pfhr
	}
	var pc prefetchConfig
	switch scheme {
	case SchemeNone, SchemeSoftware:
	case SchemeStride:
		c := prefetch.DefaultStrideConfig()
		pc.Stride = &c
	case SchemeGHB:
		c := prefetch.DefaultGHBConfig()
		pc.GHB = &c
	case SchemeIMP:
		c := prefetch.DefaultIMPConfig()
		pc.IMP = &c
	case SchemeAJ:
		c := core.Config{PFHREntries: pfhr, SingleSequence: true}.Resolved()
		pc.AJ = &c
	case SchemeDroplet:
		c := prefetch.DefaultDropletConfig()
		pc.Droplet = &c
	case SchemeProdigy:
		c := core.Config{PFHREntries: pfhr, DisableRanged: v.noRanged, SingleSequence: v.singleSeq}.Resolved()
		pc.Prodigy = &c
	default:
		return pc, fmt.Errorf("exp: unknown scheme %q", scheme)
	}
	return pc, nil
}

// factory builds the configured prefetcher over d (nil: no prefetcher).
func (pc prefetchConfig) factory(d *dig.DIG) prefetch.Factory {
	switch {
	case pc.Stride != nil:
		return prefetch.Stride(*pc.Stride)
	case pc.GHB != nil:
		return prefetch.GHB(*pc.GHB)
	case pc.IMP != nil:
		return prefetch.IMP(*pc.IMP)
	case pc.AJ != nil:
		// A&J reuses the DIG-walking machinery restricted to its design
		// point: BFS-shaped chain, one sequence, no dropping.
		cfg := *pc.AJ
		return prefetch.AJ(d, func(chain *dig.DIG) prefetch.Factory { return core.New(chain, cfg) })
	case pc.Droplet != nil:
		return prefetch.Droplet(d, *pc.Droplet)
	case pc.Prodigy != nil:
		return core.New(d, *pc.Prodigy)
	}
	return nil
}

// RunOne simulates one (algo, dataset, scheme) cell with default knobs.
func (h *Harness) RunOne(algo, dataset string, scheme Scheme) (*Run, error) {
	return h.run(algo, dataset, scheme, runVariant{})
}

// run returns the memoized result for one grid cell, simulating it on
// first request; cells with equal specs are one cell. It is safe for
// concurrent use: concurrent requests for the same cell share a single
// simulation, and a panicking simulation is converted into a tagged error
// instead of killing the sweep.
func (h *Harness) run(algo, dataset string, scheme Scheme, v runVariant) (*Run, error) {
	s, err := h.spec(algo, dataset, scheme, v)
	if err != nil {
		return nil, err
	}
	key := s.key()
	h.mu.Lock()
	e, ok := h.cache[key]
	if !ok {
		e = &runEntry{}
		h.cache[key] = e
	}
	h.mu.Unlock()

	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.run = nil
				e.err = fmt.Errorf("exp: %s/%s/%s: panic: %v\n%s",
					s.Algo, s.Dataset, s.Scheme, p, debug.Stack())
			}
		}()
		e.run, e.err = h.simulate(s, h.variantLabel(s, v))
	})
	return e.run, e.err
}

// variantLabel is the JSONL variant label of a cell requested with knobs
// v: empty when its spec is the default-knob spec of the same cell, the
// requested knobs otherwise.
func (h *Harness) variantLabel(s cellSpec, v runVariant) string {
	if v == (runVariant{}) {
		return ""
	}
	if d, err := h.spec(s.Algo, s.Dataset, Scheme(s.Scheme), runVariant{}); err == nil && d.key() == s.key() {
		return ""
	}
	return fmt.Sprintf("%+v", v)
}

// simulate executes one grid cell, building its workload and machine only
// from its spec (no memoization; called once per cell through run's
// singleflight entry). variant is the cell's JSONL variant label.
func (h *Harness) simulate(s cellSpec, variant string) (*Run, error) {
	start := time.Now() //lint:allow determinism Run.Wall reports host time; simulated cycles never read it
	scheme := Scheme(s.Scheme)
	opts := workloads.Options{
		Scale:            s.Scale,
		HubSorted:        s.HubSorted,
		SoftwarePrefetch: scheme == SchemeSoftware,
	}
	w, err := workloads.Build(s.Algo, s.Dataset, s.Cores, opts)
	if err != nil {
		return nil, err
	}
	d := w.DIG
	if s.Lookahead > 0 || s.NumSeqs > 0 {
		d = overrideTrigger(d, s.Lookahead, s.NumSeqs)
	}
	scfg := sim.Config{
		Cores:          s.Cores,
		CPU:            s.CPU,
		Cache:          s.Cache,
		DRAM:           s.DRAM,
		TLB:            s.TLB,
		Prefetcher:     s.Prefetch.factory(d),
		PrefetchFillL2: s.FillL2,
		PrefetchMSHRs:  s.MSHRs,
		MaxCycles:      s.MaxCycles,
	}
	// Interrupt sources are cause-tagged: whichever source trips first
	// records why the run died, so the abort JSONL distinguishes a
	// wall-clock timeout from a server-side cancel or shutdown. External
	// interrupts (Config.Interrupt) are polled ahead of the watchdog — a
	// cell canceled after its timeout expired but before the next poll is
	// still reported canceled.
	var interruptCause string
	var interrupts []func() string
	if h.Cfg.Interrupt != nil {
		interrupts = append(interrupts, h.Cfg.Interrupt)
	}
	if h.Cfg.RunTimeout > 0 {
		// Wall-clock guard with MaxCycles semantics: a timer flips an atomic
		// flag, the simulator polls it and aborts with an error, and the
		// sweep reports the run as failed instead of hanging on it. The
		// deadline is also checked directly so timeouts shorter than timer
		// resolution still fire deterministically.
		deadline := start.Add(h.Cfg.RunTimeout)
		var expired atomic.Bool
		//lint:allow determinism timeout watchdog; an expired run is reported failed, never mixed into results
		timer := time.AfterFunc(h.Cfg.RunTimeout, func() { expired.Store(true) })
		defer timer.Stop()
		interrupts = append(interrupts, func() string {
			if expired.Load() || time.Now().After(deadline) { //lint:allow determinism timeout watchdog; see above
				return AbortTimeout
			}
			return ""
		})
	}
	if len(interrupts) > 0 {
		scfg.Interrupt = func() bool {
			for _, poll := range interrupts {
				if c := poll(); c != "" {
					interruptCause = c
					return true
				}
			}
			return false
		}
	}
	run := &Run{Label: w.Label(), Scheme: scheme, W: w}
	scfg.MissHook = func(addr uint64) {
		if w.DIG.Covers(addr) {
			run.MissesInDIG++
		}
	}

	closeObs := func() error { return nil }
	if h.Cfg.Obs != nil {
		rec, closer, oerr := h.Cfg.Obs(w.Label() + "." + string(scheme))
		if oerr != nil {
			return nil, fmt.Errorf("exp: %s/%s: observability setup: %w", w.Label(), scheme, oerr)
		}
		scfg.Obs = rec
		if closer != nil {
			closeObs = closer
		}
	}

	res, err := sim.Run(scfg, w.Space, trace.NewGen(s.Cores), w.Run)
	cerr := closeObs()
	if err != nil {
		// An aborted run still reports a failed export flush (e.g. a full
		// disk while writing an interrupted run's outputs).
		if cerr != nil {
			err = errors.Join(err, fmt.Errorf("observability export: %w", cerr))
		}
		err = fmt.Errorf("exp: %s/%s: %w", w.Label(), scheme, err)
		//lint:allow determinism aborted-run wall time feeds the JSONL record, not results
		h.emitAbort(w.Label(), scheme, variant, err, interruptCause, res, time.Since(start))
		return nil, err
	}
	if cerr != nil {
		return nil, fmt.Errorf("exp: %s/%s: observability export: %w", w.Label(), scheme, cerr)
	}
	if h.Cfg.Verify {
		if err := w.Verify(); err != nil {
			return nil, fmt.Errorf("exp: %s/%s: %w", w.Label(), scheme, err)
		}
	}
	run.Res = res
	run.Wall = time.Since(start) //lint:allow determinism Run.Wall reports host time; simulated cycles never read it
	if h.Cfg.ReleaseWorkloads {
		// Completed (and, when requested, verified): drop the dataset
		// arrays so the memo cache retains only the statistics.
		run.W = nil
	}
	h.writeJSON(summarize(run, variant))
	return run, nil
}

// overrideTrigger clones a DIG with pinned look-ahead / sequence-count
// trigger parameters (the look-ahead ablation).
func overrideTrigger(d *dig.DIG, lookahead, numSeqs int) *dig.DIG {
	out := *d
	out.TriggerCfg = map[dig.NodeID]dig.TriggerConfig{}
	for id := range d.TriggerCfg {
		cfg := d.TriggerCfg[id]
		if lookahead > 0 {
			cfg.Lookahead = lookahead
		}
		if numSeqs > 0 {
			cfg.NumSeqs = numSeqs
		}
		out.TriggerCfg[id] = cfg
	}
	for _, id := range d.TriggerNodes() {
		if _, ok := out.TriggerCfg[id]; !ok {
			out.TriggerCfg[id] = dig.TriggerConfig{Lookahead: lookahead, NumSeqs: numSeqs}
		}
	}
	return &out
}

// EnergyOf evaluates the Fig. 19 model on a run.
func EnergyOf(r *Run, cores int) energy.Breakdown {
	c := energy.Counts{
		Cycles:       r.Res.Cycles,
		Cores:        cores,
		Retired:      r.Res.Agg.Retired,
		L1Accesses:   r.Res.Cache.DemandAccesses + r.Res.Cache.PrefetchFills,
		L2Accesses:   r.Res.Cache.DemandL2Hits + r.Res.Cache.DemandL3Hits + r.Res.Cache.DemandMem,
		L3Accesses:   r.Res.Cache.DemandL3Hits + r.Res.Cache.DemandMem + r.Res.Sim.PrefetchIssued,
		DRAMAccesses: r.Res.DRAM.Requests + r.Res.DRAM.Writes,
	}
	return energy.Compute(energy.Default(), c)
}

// GraphCells enumerates the (algo, dataset) cells for the configured
// datasets: graph algorithms cross datasets, non-graph algorithms appear
// once.
func (h *Harness) GraphCells(includeOthers bool) []struct{ Algo, Dataset string } {
	var out []struct{ Algo, Dataset string }
	for _, a := range workloads.GraphAlgos {
		for _, d := range h.Cfg.Datasets {
			out = append(out, struct{ Algo, Dataset string }{a, d})
		}
	}
	if includeOthers {
		for _, a := range workloads.OtherAlgos {
			out = append(out, struct{ Algo, Dataset string }{a, ""})
		}
	}
	return out
}

// datasetsFor returns the datasets to use for an algorithm (one empty
// entry for non-graph kernels).
func (h *Harness) datasetsFor(algo string) []string {
	if workloads.IsGraphAlgo(algo) {
		return h.Cfg.Datasets
	}
	return []string{""}
}
