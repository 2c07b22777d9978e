// Package farm turns the one-shot experiment harness (internal/exp)
// into a long-running sweep backend: it accepts sweep specifications
// (algos × datasets × schemes), shards the cells across the harness's
// bounded worker pool, deduplicates work through a durable
// config-hash-keyed result cache (Store), and streams every cell's
// RunSummary line — cached replays first, then live completions — to any
// number of concurrent subscribers through an obs.LineLog.
//
// Sweeps are interruptible and resumable: Cancel (or a server drain)
// aborts in-flight simulations through exp.Config.Interrupt with a
// typed cause, completed cells stay cached, and re-submitting the same
// spec after a restart replays the cached cells byte-identically and
// simulates only what is missing. cmd/prodigy-serve is the HTTP front
// end; docs/SERVING.md specifies the semantics.
package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/obs"
	"prodigy/internal/telemetry"
	"prodigy/internal/workloads"
)

// Config parameterizes a Farm.
type Config struct {
	// Exp is the harness configuration template every sweep runs under
	// (machine geometry, scale, parallelism, timeouts). The per-sweep
	// fields JSONLog, Progress, Interrupt, and ReleaseWorkloads are
	// managed by the farm; values set here for them are ignored.
	Exp exp.Config
	// Store, when non-nil, is the durable result cache consulted before
	// and fed after every simulation.
	Store *Store
	// LogDir, when non-empty, receives one <id>.jsonl per sweep holding
	// exactly the NDJSON the sweep streamed (obs.SweepLogPath routing).
	LogDir string
	// Metrics, when non-nil, receives the farm's service telemetry
	// (cells, cache hit rate, queue depth, per-cell wall-clock, stream
	// and store latencies — metrics.go catalogs the families). Nil
	// disables instrumentation; every site is nil-safe.
	Metrics *telemetry.Registry
}

// ErrShutdown rejects work submitted after Shutdown began.
var ErrShutdown = errors.New("farm: shutting down")

// Farm owns the sweep registry and the shared result cache.
type Farm struct {
	cfg Config

	mu     sync.Mutex
	sweeps map[string]*Sweep
	order  []string
	nextID int
	closed bool

	// draining flips when Shutdown's deadline expires: every in-flight
	// simulation is then interrupted with exp.AbortShutdown.
	draining atomic.Bool
	wg       sync.WaitGroup

	met farmMetrics
}

// New builds a farm.
func New(cfg Config) *Farm {
	if cfg.Store != nil {
		cfg.Store.Instrument(cfg.Metrics)
	}
	return &Farm{cfg: cfg, sweeps: map[string]*Sweep{}, met: newFarmMetrics(cfg.Metrics)}
}

// ShuttingDown reports whether Shutdown has begun: the farm rejects new
// sweeps and the HTTP front end's /healthz reports "draining".
func (f *Farm) ShuttingDown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Spec is the wire form of one sweep request: the requested cells are
// the cross product algos × datasets × schemes, except that non-graph
// algorithms take no dataset and appear once per scheme. An empty
// Datasets list means every dataset the farm's harness configuration
// enables.
type Spec struct {
	Algos    []string `json:"algos"`
	Datasets []string `json:"datasets,omitempty"`
	Schemes  []string `json:"schemes"`
}

// cells validates the spec and expands it into grid cells in
// deterministic grid order. defaults supplies the dataset list used
// when the spec names none.
func (sp Spec) cells(defaults []string) ([]exp.Cell, error) {
	if len(sp.Algos) == 0 {
		return nil, fmt.Errorf("farm: sweep spec names no algorithms")
	}
	if len(sp.Schemes) == 0 {
		return nil, fmt.Errorf("farm: sweep spec names no schemes")
	}
	known := map[string]bool{}
	for _, a := range workloads.AllAlgos {
		known[a] = true
	}
	for _, a := range sp.Algos {
		if !known[a] {
			return nil, fmt.Errorf("farm: unknown algorithm %q (want one of %v)", a, workloads.AllAlgos)
		}
	}
	datasets := sp.Datasets
	if len(datasets) == 0 {
		datasets = defaults
	}
	knownDS := map[string]bool{}
	for _, d := range graph.DatasetNames() {
		knownDS[d] = true
	}
	for _, d := range datasets {
		if !knownDS[d] {
			return nil, fmt.Errorf("farm: unknown dataset %q (want one of %v)", d, graph.DatasetNames())
		}
	}
	schemes := make([]exp.Scheme, 0, len(sp.Schemes))
	for _, s := range sp.Schemes {
		k, err := exp.ParseScheme(s)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, k)
	}
	var cells []exp.Cell
	seen := map[exp.Cell]bool{}
	for _, a := range sp.Algos {
		ds := datasets
		if !workloads.IsGraphAlgo(a) {
			ds = []string{""}
		}
		for _, d := range ds {
			for _, s := range schemes {
				c := exp.Cell{Algo: a, Dataset: d, Scheme: s}
				if seen[c] {
					continue
				}
				seen[c] = true
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// Status is a sweep's point-in-time progress snapshot.
type Status struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
	// Cached cells were replayed from the durable store without
	// simulating; Simulated completed live; Aborted died (timeout,
	// cancel, shutdown, error) and are not cached.
	Cached    int  `json:"cached"`
	Simulated int  `json:"simulated"`
	Aborted   int  `json:"aborted"`
	Done      bool `json:"done"`
	Canceled  bool `json:"canceled"`
	// Live progress: InFlight cells are simulating right now, Queued are
	// accepted but not yet picked up by a worker (both 0 once Done).
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// ElapsedMS is wall clock since submission (frozen at completion).
	// EtaMS extrapolates the remaining cells from the rate of completed
	// live simulations; it is 0 (omitted) while no live cell has finished
	// and once the sweep is done.
	ElapsedMS float64 `json:"elapsed_ms"`
	EtaMS     float64 `json:"eta_ms,omitempty"`
	// Err carries the joined cell errors of a finished sweep ("" while
	// running or on full success).
	Err string `json:"error,omitempty"`
	// Spec echoes the request.
	Spec Spec `json:"spec"`
}

// Sweep is one submitted grid in flight or finished.
type Sweep struct {
	// ID is the farm-assigned handle ("s001", ...).
	ID string
	// Log is the sweep's NDJSON stream: cached replays in grid order,
	// then live completions in completion order. It closes when the
	// sweep finishes; subscribers replay the full history first, so
	// every client observes byte-identical streams.
	Log *obs.LineLog

	farm  *Farm
	spec  Spec
	cells []exp.Cell
	keys  []string
	torun []exp.Cell
	// keyByCell routes a completed summary line (identified by its
	// "label|scheme" cell coordinates) back to its store key.
	keyByCell map[string]string
	h         *exp.Harness

	cancelCause atomic.Pointer[string]
	done        chan struct{}

	mu        sync.Mutex
	cached    int
	simulated int
	aborted   int
	inflight  int
	queued    int
	// started/finished bound the sweep's wall-clock window (service
	// telemetry only; simulated results never read them).
	started  time.Time
	finished time.Time
	err      error
	file     *os.File
}

// Start validates spec, registers a new sweep, and launches it. Cached
// cells are replayed onto the sweep's Log before any simulation starts.
func (f *Farm) Start(spec Spec) (*Sweep, error) {
	// Resolve the default dataset list exactly like the harness will.
	defaults := f.cfg.Exp.Datasets
	if len(defaults) == 0 {
		defaults = graph.DatasetNames()
	}
	cells, err := spec.cells(defaults)
	if err != nil {
		return nil, err
	}

	s := &Sweep{
		farm:      f,
		spec:      spec,
		cells:     cells,
		keys:      make([]string, len(cells)),
		keyByCell: map[string]string{},
		Log:       obs.NewLineLog(),
		done:      make(chan struct{}),
	}
	s.started = time.Now() //lint:allow determinism service telemetry wall clock; simulated results never read it
	s.Log.Instrument(f.met.stream)
	hcfg := f.cfg.Exp
	hcfg.Progress = nil
	hcfg.ReleaseWorkloads = true
	hcfg.Interrupt = s.interruptCause
	hcfg.JSONLog = sweepWriter{s}
	hcfg.CellStart = s.cellStarted
	s.h = exp.New(hcfg)
	for i, c := range cells {
		key, err := s.h.CellKey(c.Algo, c.Dataset, c.Scheme)
		if err != nil {
			return nil, err
		}
		s.keys[i] = key
		s.keyByCell[cellCoord(cellLabel(c), string(c.Scheme))] = key
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrShutdown
	}
	f.nextID++
	s.ID = fmt.Sprintf("s%03d", f.nextID)
	f.sweeps[s.ID] = s
	f.order = append(f.order, s.ID)
	f.wg.Add(1)
	f.mu.Unlock()

	if f.cfg.LogDir != "" {
		path := obs.SweepLogPath(f.cfg.LogDir, s.ID)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if file, ferr := os.Create(path); ferr == nil {
				s.file = file
			} else {
				fmt.Fprintf(os.Stderr, "farm: sweep log %s: %v\n", path, ferr)
			}
		} else {
			fmt.Fprintf(os.Stderr, "farm: sweep log dir: %v\n", err)
		}
	}

	// Replay cached cells synchronously, in grid order, before the
	// simulation goroutine starts: callers (and response headers) observe
	// the exact cached count immediately, and every subscriber sees the
	// replays ahead of any live completion.
	for i, c := range cells {
		if f.cfg.Store != nil {
			if line, ok := f.cfg.Store.Get(s.keys[i]); ok {
				s.emit(line)
				s.mu.Lock()
				s.cached++
				s.mu.Unlock()
				f.met.cacheHits.Inc()
				f.met.cellsCached.Inc()
				continue
			}
		}
		s.torun = append(s.torun, c)
		f.met.cacheMisses.Inc()
	}
	s.mu.Lock()
	s.queued = len(s.torun)
	s.mu.Unlock()
	f.met.sweepsTotal.Inc()
	f.met.activeSweeps.Add(1)
	f.met.queueDepth.Add(int64(len(s.torun)))

	go s.run()
	return s, nil
}

// Get returns a sweep by ID.
func (f *Farm) Get(id string) (*Sweep, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.sweeps[id]
	return s, ok
}

// List returns every sweep's status in submission order.
func (f *Farm) List() []Status {
	f.mu.Lock()
	ids := append([]string(nil), f.order...)
	f.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if s, ok := f.Get(id); ok {
			out = append(out, s.Status())
		}
	}
	return out
}

// Cancel aborts a sweep's in-flight and queued cells with
// exp.AbortCanceled. Completed cells stay cached; canceling a finished
// sweep is a no-op.
func (f *Farm) Cancel(id string) error {
	s, ok := f.Get(id)
	if !ok {
		return fmt.Errorf("farm: no sweep %q", id)
	}
	s.cancel(exp.AbortCanceled)
	return nil
}

// Shutdown stops accepting sweeps and waits for running ones to finish.
// If ctx expires first, every in-flight simulation is interrupted with
// exp.AbortShutdown and Shutdown still waits for the (now fast) drain,
// returning ctx's error to signal the forced stop.
func (f *Farm) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.draining.Store(true)
		<-done
		return ctx.Err()
	}
}

// cellLabel mirrors workloads.Workload.Label for a grid cell.
func cellLabel(c exp.Cell) string {
	if c.Dataset == "" {
		return c.Algo
	}
	return c.Algo + "-" + c.Dataset
}

// cellCoord is the routing key from a summary line back to its cell.
func cellCoord(label, scheme string) string { return label + "|" + scheme }

// interruptCause is polled by every simulation this sweep runs.
func (s *Sweep) interruptCause() string {
	if s.farm.draining.Load() {
		return exp.AbortShutdown
	}
	if c := s.cancelCause.Load(); c != nil {
		return *c
	}
	return ""
}

func (s *Sweep) cancel(cause string) {
	s.cancelCause.CompareAndSwap(nil, &cause)
}

// Canceled reports whether the sweep was canceled.
func (s *Sweep) Canceled() bool { return s.cancelCause.Load() != nil }

// Done exposes completion: the channel closes when the sweep finishes.
func (s *Sweep) Done() <-chan struct{} { return s.done }

// Err returns the joined per-cell errors after Done (nil on success).
func (s *Sweep) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Status snapshots progress, including the live view: in-flight and
// queued cells, elapsed wall clock, and an ETA extrapolated from the
// completed-cell rate (remaining ÷ cells-per-second so far; the worker
// pool's parallelism is already reflected in that rate).
func (s *Sweep) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:        s.ID,
		Cells:     len(s.cells),
		Cached:    s.cached,
		Simulated: s.simulated,
		Aborted:   s.aborted,
		Canceled:  s.cancelCause.Load() != nil,
		InFlight:  s.inflight,
		Queued:    s.queued,
		Spec:      s.spec,
	}
	end := s.finished
	if end.IsZero() {
		end = time.Now() //lint:allow determinism service telemetry wall clock; simulated results never read it
	}
	elapsed := end.Sub(s.started)
	st.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	select {
	case <-s.done:
		st.Done = true
		st.InFlight, st.Queued = 0, 0
		if s.err != nil {
			st.Err = s.err.Error()
		}
	default:
		if done := s.simulated + s.aborted; done > 0 {
			remaining := s.inflight + s.queued
			st.EtaMS = st.ElapsedMS * float64(remaining) / float64(done)
		}
	}
	return st
}

// Summaries parses the sweep's streamed NDJSON back into runner
// summaries (the /diff endpoint's input).
func (s *Sweep) Summaries() ([]exp.RunSummary, error) {
	lines := s.Log.Lines()
	out := make([]exp.RunSummary, 0, len(lines))
	for _, line := range lines {
		var sum exp.RunSummary
		if err := json.Unmarshal(line, &sum); err != nil {
			return nil, fmt.Errorf("farm: sweep %s: bad summary line %q: %w", s.ID, line, err)
		}
		out = append(out, sum)
	}
	return out, nil
}

// run executes the uncached remainder of the sweep through the harness
// worker pool (Start already replayed the cached cells).
func (s *Sweep) run() {
	defer s.farm.wg.Done()
	// done closes before the log: a client that reads the stream to its
	// end must then see the sweep as finished.
	defer s.Log.Close()
	defer close(s.done)
	defer s.closeFile()
	defer s.settle()

	if len(s.torun) == 0 {
		return
	}
	_, err := s.h.RunGrid(s.torun)
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// settle reconciles the farm gauges when the sweep finishes. Cells that
// died without a summary line (a harness-level failure ahead of the
// simulation, e.g. a dataset build error) would otherwise leak queue or
// in-flight counts forever.
func (s *Sweep) settle() {
	s.mu.Lock()
	leakedQ, leakedIF := s.queued, s.inflight
	s.queued, s.inflight = 0, 0
	s.finished = time.Now() //lint:allow determinism service telemetry wall clock; simulated results never read it
	s.mu.Unlock()
	m := &s.farm.met
	m.queueDepth.Add(-int64(leakedQ))
	m.inflight.Add(-int64(leakedIF))
	m.activeSweeps.Add(-1)
}

// cellStarted is the harness CellStart hook: a worker picked up one of
// this sweep's cells.
func (s *Sweep) cellStarted(string) {
	s.mu.Lock()
	s.queued--
	s.inflight++
	s.mu.Unlock()
	m := &s.farm.met
	m.queueDepth.Add(-1)
	m.inflight.Add(1)
}

// emit routes one NDJSON line (no trailing newline) to the live stream
// and the sweep's on-disk log.
func (s *Sweep) emit(line []byte) {
	s.Log.Append(line)
	s.mu.Lock()
	file := s.file
	s.mu.Unlock()
	if file != nil {
		if _, err := file.Write(append(line, '\n')); err != nil {
			fmt.Fprintf(os.Stderr, "farm: sweep %s log write: %v\n", s.ID, err)
		}
	}
}

func (s *Sweep) closeFile() {
	s.mu.Lock()
	file := s.file
	s.file = nil
	s.mu.Unlock()
	if file != nil {
		if err := file.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "farm: sweep %s log close: %v\n", s.ID, err)
		}
	}
}

// observe handles one completed summary line from the harness: stream
// it, then persist it when the run completed (abort records are never
// cached — a canceled or timed-out cell must re-run next time).
func (s *Sweep) observe(line []byte) {
	s.emit(line)
	var sum exp.RunSummary
	if err := json.Unmarshal(line, &sum); err != nil {
		fmt.Fprintf(os.Stderr, "farm: sweep %s: unparsable summary line: %v\n", s.ID, err)
		return
	}
	s.mu.Lock()
	if sum.Abort == "" {
		s.simulated++
	} else {
		s.aborted++
	}
	s.inflight--
	s.mu.Unlock()
	m := &s.farm.met
	m.inflight.Add(-1)
	if sum.Abort == "" {
		m.cellsSimulated.Inc()
		m.cellWall(sum.Label, sum.Scheme, sum.WallMS)
	} else {
		m.cellAborted(sum.Abort)
	}
	if sum.Abort != "" || sum.Variant != "" || s.farm.cfg.Store == nil {
		return
	}
	key, ok := s.keyByCell[cellCoord(sum.Label, sum.Scheme)]
	if !ok {
		return
	}
	if err := s.farm.cfg.Store.Put(key, line); err != nil {
		fmt.Fprintf(os.Stderr, "farm: sweep %s: %v\n", s.ID, err)
	}
}

// sweepWriter adapts the harness's JSONL stream to the sweep. The
// runner writes exactly one complete newline-terminated line per Write
// call (under its log mutex), so no reassembly is needed.
type sweepWriter struct{ s *Sweep }

func (w sweepWriter) Write(p []byte) (int, error) {
	w.s.observe(bytes.TrimRight(p, "\n"))
	return len(p), nil
}
