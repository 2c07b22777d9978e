package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"prodigy/internal/cpu"
	"prodigy/internal/sim"
	"prodigy/internal/stats"
)

// This file is the parallel experiment runner. Every figure driver first
// enumerates the (workload × dataset × scheme × variant) cells it needs as
// a jobList and hands it to Harness.warm, which fans the independent
// simulations out across a bounded worker pool into the memoization cache.
// The figure's reduction logic then reads memoized results keyed by grid
// cell, so tables and geomeans are byte-identical to serial execution
// regardless of completion order. docs/ARCHITECTURE.md explains why the
// runs are independent; TestParallelMatchesSerialGolden enforces the
// guarantee.

// runJob names one grid cell to simulate.
type runJob struct {
	algo, dataset string
	scheme        Scheme
	v             runVariant
}

// label renders the job for progress and error reporting.
func (j runJob) label() string {
	if j.dataset == "" {
		return j.algo + "/" + string(j.scheme)
	}
	return j.algo + "-" + j.dataset + "/" + string(j.scheme)
}

// jobList accumulates grid cells for a sweep.
type jobList struct {
	jobs []runJob
	seen map[string]bool
}

// add appends one cell, dropping cells that build the same machine as
// one already listed (figures frequently share baseline cells). A cell
// that fails to resolve is kept, so that run reports its error.
func (l *jobList) add(h *Harness, algo, dataset string, scheme Scheme, v runVariant) {
	if l.seen == nil {
		l.seen = map[string]bool{}
	}
	if s, err := h.spec(algo, dataset, scheme, v); err == nil {
		key := s.key()
		if l.seen[key] {
			return
		}
		l.seen[key] = true
	}
	l.jobs = append(l.jobs, runJob{algo, dataset, scheme, v})
}

// addCells appends cells × schemes with default knobs.
func (l *jobList) addCells(h *Harness, cells []struct{ Algo, Dataset string }, schemes ...Scheme) {
	for _, c := range cells {
		for _, s := range schemes {
			l.add(h, c.Algo, c.Dataset, s, runVariant{})
		}
	}
}

// parallelism resolves the configured worker count.
func (h *Harness) parallelism() int {
	if h.Cfg.Parallelism > 0 {
		return h.Cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// warm simulates every job in the list, fanning them out across up to
// Config.Parallelism workers. All results land in the memoization cache;
// callers re-read them via run()/RunOne in their own deterministic order.
// Workers never die with the sweep: a panicking or timed-out simulation
// surfaces as a tagged error for its cell (and in the returned joined
// error) while every other cell still completes.
func (h *Harness) warm(l jobList) error {
	jobs := l.jobs
	if len(jobs) == 0 {
		return nil
	}
	workers := h.parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	meter := stats.NewMeter(len(jobs))
	stopProgress := h.startProgress(meter)
	defer stopProgress()

	errc := make(chan error, len(jobs))
	jobc := make(chan runJob)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobc {
				if h.Cfg.CellStart != nil {
					h.Cfg.CellStart(j.label())
				}
				start := time.Now() //lint:allow determinism host wall time feeds the progress meter, not results
				_, err := h.run(j.algo, j.dataset, j.scheme, j.v)
				if err != nil {
					err = fmt.Errorf("%s: %w", j.label(), err)
				}
				//lint:allow determinism host wall time feeds the progress meter, not results
				meter.Done(j.label(), time.Since(start))
				errc <- err
			}
		}()
	}
	for _, j := range jobs {
		jobc <- j
	}
	close(jobc)

	var errs []error
	for range jobs {
		if err := <-errc; err != nil {
			errs = append(errs, err)
		}
	}
	// Joined in deterministic order so the same failures always render the
	// same message regardless of which worker hit them first.
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errors.Join(errs...)
}

// Cell names one (algorithm, dataset, scheme) grid cell with default
// machine knobs, the unit of work RunGrid schedules.
type Cell struct {
	// Algo is the algorithm name; Dataset is empty for non-graph kernels.
	Algo, Dataset string
	// Scheme is the prefetching configuration.
	Scheme Scheme
}

// RunGrid simulates every cell, fanned out across Config.Parallelism
// workers, and returns results indexed exactly like cells — grid order,
// never completion order — so output is deterministic at any parallelism.
func (h *Harness) RunGrid(cells []Cell) ([]*Run, error) {
	var jobs jobList
	for _, c := range cells {
		jobs.add(h, c.Algo, c.Dataset, c.Scheme, runVariant{})
	}
	if err := h.warm(jobs); err != nil {
		return nil, err
	}
	out := make([]*Run, len(cells))
	for i, c := range cells {
		r, err := h.RunOne(c.Algo, c.Dataset, c.Scheme)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// startProgress launches the interval reporter for one sweep when
// Config.Progress is set. The returned stop function emits the final
// summary line.
func (h *Harness) startProgress(meter *stats.Meter) (stop func()) {
	w := h.Cfg.Progress
	if w == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(h.Cfg.ProgressInterval) //lint:allow determinism progress-report cadence only; output goes to the status writer
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintf(w, "exp: %s\n", meter.Snapshot())
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		s := meter.Snapshot()
		fmt.Fprintf(w, "exp: sweep finished: %s\n", s)
	}
}

// RunSummary is the machine-readable per-run record emitted to
// Config.JSONLog, one JSON object per line.
type RunSummary struct {
	// Label is "algo-dataset" (or the algorithm alone) and Scheme the
	// prefetching configuration.
	Label  string `json:"label"`
	Scheme string `json:"scheme"`
	// Variant carries the requested machine knobs of an ablation or sweep
	// cell; omitted when the cell builds its default-knob machine (e.g. a
	// knob that restates the harness default).
	Variant string `json:"variant,omitempty"`
	// Cycles, Retired, and IPC summarize simulated performance.
	Cycles  int64   `json:"cycles"`
	Retired int64   `json:"retired"`
	IPC     float64 `json:"ipc"`
	// CPIStack maps stall-class names to their fraction of total cycles.
	CPIStack map[string]float64 `json:"cpi_stack"`
	// DRAMUtilization is the controller-pipe busy fraction.
	DRAMUtilization float64 `json:"dram_util"`
	// WallMS is host wall-clock milliseconds the simulation took.
	WallMS float64 `json:"wall_ms"`
	// Abort names the guard that killed an unsuccessful run ("timeout",
	// "max-cycles", "deadlock", or "error"); empty for completed runs.
	Abort string `json:"abort,omitempty"`
	// Error carries the failure message for aborted runs.
	Error string `json:"error,omitempty"`
	// RetiredPerCore records each core's progress at the abort point, so a
	// timed-out sweep cell still shows how far it got (and whether one
	// straggler core was the problem). Omitted for completed runs, whose
	// aggregate is in Retired.
	RetiredPerCore []int64 `json:"retired_per_core,omitempty"`
	// PF summarizes prefetch-lifecycle quality (accuracy, coverage,
	// timeliness and the raw lifecycle counts behind them); omitted when
	// the run issued no prefetches.
	PF *PFSummary `json:"pf,omitempty"`
}

// PFSummary is the prefetch-quality block of a RunSummary: the aggregate
// lifecycle counts across cores plus the derived ratios (see
// sim.PrefetchQuality for the definitions).
type PFSummary struct {
	Issued        uint64  `json:"issued"`
	Fills         uint64  `json:"fills"`
	Timely        uint64  `json:"timely"`
	Late          uint64  `json:"late"`
	EvictedUnused uint64  `json:"evicted_unused"`
	Redundant     uint64  `json:"redundant"`
	Dropped       uint64  `json:"dropped"`
	Accuracy      float64 `json:"accuracy"`
	Coverage      float64 `json:"coverage"`
	Timeliness    float64 `json:"timeliness"`
}

// pfSummaryOf reduces a result's aggregate prefetch quality to the JSONL
// block, or nil when the run issued no prefetches (baseline schemes).
func pfSummaryOf(res sim.Result) *PFSummary {
	q := res.PFQAgg
	if q.Issued == 0 {
		return nil
	}
	return &PFSummary{
		Issued:        q.Issued,
		Fills:         q.Fills,
		Timely:        q.Timely,
		Late:          q.Late,
		EvictedUnused: q.EvictedUnused,
		Redundant:     q.Redundant,
		Dropped:       q.Dropped,
		Accuracy:      q.Accuracy(),
		Coverage:      q.Coverage(),
		Timeliness:    q.Timeliness(),
	}
}

// Abort-cause tags recorded in RunSummary.Abort. The first three are
// interrupt causes: the RunTimeout watchdog reports AbortTimeout, and
// external interrupt sources (Config.Interrupt — e.g. the sweep service
// in internal/exp/farm) report AbortCanceled for a client cancellation
// and AbortShutdown for a server drain.
const (
	AbortTimeout   = "timeout"
	AbortCanceled  = "canceled"
	AbortShutdown  = "shutdown"
	AbortMaxCycles = "max-cycles"
	AbortDeadlock  = "deadlock"
	AbortError     = "error"
)

// abortKind classifies a simulation failure for the JSONL record. The
// typed sentinels from internal/sim survive the exp error wrapping, so a
// sweep log distinguishes a wall-clock timeout from a runaway simulation
// hitting MaxCycles or a scheduler deadlock. An interrupted run carries
// the cause recorded by whichever interrupt source tripped (timeout
// watchdog vs an external canceler), so a server-canceled cell is tagged
// "canceled", never misreported as "timeout".
func abortKind(err error, cause string) string {
	switch {
	case errors.Is(err, sim.ErrInterrupted):
		if cause != "" {
			return cause
		}
		// Every interrupt source exp installs records a cause; this is
		// reachable only if sim.Config.Interrupt tripped behind exp's back.
		return "interrupted"
	case errors.Is(err, sim.ErrMaxCycles):
		return AbortMaxCycles
	case errors.Is(err, sim.ErrDeadlock):
		return AbortDeadlock
	default:
		return AbortError
	}
}

// summarize builds the JSON record for a completed run.
func summarize(r *Run, variant string) RunSummary {
	s := RunSummary{
		Label:           r.Label,
		Scheme:          string(r.Scheme),
		Variant:         variant,
		Cycles:          r.Res.Cycles,
		Retired:         r.Res.Agg.Retired,
		IPC:             r.Res.IPC(),
		DRAMUtilization: r.Res.DRAMUtilization,
		WallMS:          float64(r.Wall.Microseconds()) / 1e3,
		CPIStack:        map[string]float64{},
		PF:              pfSummaryOf(r.Res),
	}
	if total := float64(r.Res.Agg.Total()); total > 0 {
		for _, k := range cpu.StallKinds {
			s.CPIStack[k.String()] = float64(r.Res.Agg.Cycles[k]) / total
		}
	}
	return s
}

// emitAbort logs a failed run to Config.JSONLog so a sweep record shows
// which cells died and why, not just which completed. res carries the
// partial statistics the simulator collected up to the abort point
// (zero-valued when the machine never ran, e.g. a config error); cause
// is the interrupt cause recorded by simulate, empty for non-interrupt
// aborts.
func (h *Harness) emitAbort(label string, scheme Scheme, variant string, runErr error, cause string, res sim.Result, wall time.Duration) {
	s := RunSummary{
		Label:           label,
		Scheme:          string(scheme),
		Variant:         variant,
		Cycles:          res.Cycles,
		Retired:         res.Agg.Retired,
		IPC:             res.IPC(),
		DRAMUtilization: res.DRAMUtilization,
		WallMS:          float64(wall.Microseconds()) / 1e3,
		// CPIStack is always the (possibly empty) map, matching summarize:
		// aborted and completed records share one schema ("cpi_stack":{}
		// when there is nothing to attribute, never null).
		CPIStack: map[string]float64{},
		Abort:    abortKind(runErr, cause),
		Error:    runErr.Error(),
		PF:       pfSummaryOf(res),
	}
	for _, stack := range res.Stacks {
		s.RetiredPerCore = append(s.RetiredPerCore, stack.Retired)
	}
	if total := float64(res.Agg.Total()); total > 0 {
		for _, k := range cpu.StallKinds {
			s.CPIStack[k.String()] = float64(res.Agg.Cycles[k]) / total
		}
	}
	h.writeJSON(s)
}

// writeJSON serializes one summary line under the log mutex.
func (h *Harness) writeJSON(s RunSummary) {
	if h.Cfg.JSONLog == nil {
		return
	}
	b, err := json.Marshal(s)
	if err != nil {
		// A silently dropped record would leave an invisible hole in the
		// sweep log; report it like the write-failure path below.
		h.logErrorf("exp: json log marshal failed (%s/%s): %v\n", s.Label, s.Scheme, err)
		return
	}
	h.jsonMu.Lock()
	defer h.jsonMu.Unlock()
	if _, err := h.Cfg.JSONLog.Write(append(b, '\n')); err != nil {
		h.logErrorf("exp: json log write failed: %v\n", err)
	}
}

// logErrorf reports a harness-internal failure on stderr; tests redirect
// it through the errw override.
func (h *Harness) logErrorf(format string, args ...any) {
	w := io.Writer(os.Stderr)
	if h.errw != nil {
		w = h.errw
	}
	fmt.Fprintf(w, format, args...)
}
