// Package obs is the simulation observability layer, the one probe
// surface of a run: a counter/gauge registry with interval sampling
// (per-core CPI-stack slices, cache miss rates, DRAM busy fraction and
// queue depth, PFHR occupancy, ...) emitted as JSONL, a Chrome
// trace-event (catapult JSON) timeline exporter whose output opens
// directly in chrome://tracing or Perfetto, the per-line prefetch ledger
// (JSONL), and the demand-latency histogram.
//
// Every hook goes through a nil-checkable *Recorder: a nil receiver makes
// each call a single branch, so fully-disabled instrumentation costs one
// predictable compare per hook and perturbs nothing. The recorder is
// driven entirely by simulated cycles — it never reads the wall clock —
// so two identical runs produce byte-identical outputs.
//
// Wiring: the simulation engine calls Start once at machine assembly,
// components register counters (pointers to their own Stats fields) and
// gauges while attaching, the engine calls Sample at the first
// scheduling point past each interval boundary, before that cycle's
// events, and Tick after them (flushing every interval whose cycles are
// fully attributed), and Finish flushes the tail and the trace footer.
// See docs/OBSERVABILITY.md for the CLI flags and a trace-viewer
// walkthrough.
package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"prodigy/internal/stats"
)

// DefaultInterval is the metrics sampling period in cycles when Options
// leaves it unset.
const DefaultInterval = 10000

// Options configures a Recorder. Any output may be nil to disable it;
// New with all nil still returns a usable (inert) recorder, but callers
// normally pass a nil *Recorder instead.
type Options struct {
	// Interval is the metrics sampling period in simulated cycles
	// (default DefaultInterval).
	Interval int64
	// Metrics receives one JSON object per interval (JSONL).
	Metrics io.Writer
	// Trace receives the catapult trace-event JSON stream.
	Trace io.Writer
	// Ledger receives one LedgerRow per completed prefetch fill (JSONL).
	Ledger io.Writer
	// Latency accumulates demand loads' and atomics' issue→ready cycles.
	Latency *stats.Histogram
}

// CounterID names a registered counter. -1 (returned by a refused
// registration) is safely ignored by AddAt.
type CounterID int32

// counter is one registered interval counter: sampled (the growth of its
// summed sources) or, without sources, stamped (fed by AddAt).
type counter struct {
	name string
	srcs []*uint64
	last uint64 // summed source value at the previous sample
}

// value sums the counter's sources.
func (c *counter) value() uint64 {
	var v uint64
	for _, p := range c.srcs {
		v += *p
	}
	return v
}

// gauge is a registered sampling callback.
type gauge struct {
	name string
	fn   func(cycle int64) float64
}

// spanState coalesces consecutive same-class stall chunks into one
// timeline span per core.
type spanState struct {
	class      int
	start, end int64
	open       bool
}

// bucket accumulates one interval's deltas.
type bucket struct {
	cpi      [][]int64 // [core][class] attributed cycles
	counters []uint64
}

// Recorder collects interval metrics and timeline events for one
// simulation. All methods are safe on a nil receiver (no-ops), which is
// the disabled path. A Recorder is single-run and not safe for concurrent
// use — exactly like the simulation engine that drives it.
type Recorder struct {
	interval int64
	metrics  io.Writer
	tw       *traceWriter
	ledger   io.Writer
	hist     *stats.Histogram
	clock    func() int64

	cores   int
	classes []string

	counters []counter
	index    map[string]CounterID
	gauges   []gauge
	sealed   bool
	// tracked lists the counters additionally exported as Chrome counter
	// tracks ("C" events) at each interval flush. A slice, not a map: the
	// emission order must be deterministic (registration order).
	tracked []CounterID

	// next is the next interval index to flush; buckets[i] covers
	// interval next+i (nil entries are all-zero intervals).
	next    int64
	buckets []*bucket
	// sampleIdx is the interval sampled counters currently accrue in.
	sampleIdx int64

	spans []spanState
	err   error
}

// New builds a Recorder from opts. Returns a non-nil recorder; pass a nil
// *Recorder wherever instrumentation should be disabled entirely.
func New(opts Options) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	r := &Recorder{
		interval: opts.Interval,
		metrics:  opts.Metrics,
		ledger:   opts.Ledger,
		hist:     opts.Latency,
		index:    map[string]CounterID{},
	}
	if opts.Trace != nil {
		r.tw = newTraceWriter(opts.Trace)
	}
	return r
}

// Interval returns the metrics sampling period in cycles (0 on a nil
// recorder).
func (r *Recorder) Interval() int64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// Start configures the run topology: core count, stall-class display
// names (the CPI-stack categories), and the simulated-cycle clock used by
// hooks that have no explicit cycle at hand. The engine calls this once
// at machine assembly, before components register counters.
func (r *Recorder) Start(cores int, stallClasses []string, clock func() int64) {
	if r == nil {
		return
	}
	r.cores = cores
	r.classes = append([]string(nil), stallClasses...)
	r.clock = clock
	r.spans = make([]spanState, cores)
	if r.tw != nil {
		r.tw.event(traceEvent{Ph: "M", Pid: 0, Name: "process_name",
			Args: map[string]any{"name": "prodigy cores"}})
		for c := 0; c < cores; c++ {
			r.tw.event(traceEvent{Ph: "M", Pid: 0, Tid: c, Name: "thread_name",
				Args: map[string]any{"name": "core " + strconv.Itoa(c)}})
		}
	}
}

// now returns the current simulated cycle (0 before Start).
func (r *Recorder) now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// Counter registers (or re-fetches) a named interval counter and returns
// its ID. srcs point at cumulative values the simulator already keeps
// (e.g. &hier.Stats.DemandAccesses); each interval reports their summed
// growth, and re-registering a name adds sources (one per core, say). A
// counter without sources is stamped, fed per event by AddAt.
// Registration happens while components attach; once sampling has begun
// new names are refused (inert ID) and new sources ignored.
func (r *Recorder) Counter(name string, srcs ...*uint64) CounterID {
	if r == nil {
		return -1
	}
	id, ok := r.index[name]
	if r.sealed {
		if !ok {
			return -1
		}
		return id
	}
	if !ok {
		id = CounterID(len(r.counters))
		r.counters = append(r.counters, counter{name: name})
		r.index[name] = id
	}
	c := &r.counters[id]
	c.srcs = append(c.srcs, srcs...)
	c.last = c.value()
	return id
}

// TrackCounter registers (or re-fetches) a named counter exactly like
// Counter and additionally exports it as a Chrome counter track: one "C"
// event per flushed interval carrying the interval's delta, so the
// counter renders as a value-over-time track in the trace viewer. With
// tracing disabled it behaves exactly like Counter.
func (r *Recorder) TrackCounter(name string, srcs ...*uint64) CounterID {
	id := r.Counter(name, srcs...)
	if r == nil || id < 0 || r.tw == nil {
		return id
	}
	for _, t := range r.tracked {
		if t == id {
			return id
		}
	}
	r.tracked = append(r.tracked, id)
	return id
}

// GaugeFunc registers a named gauge sampled at every interval boundary
// with the boundary cycle.
func (r *Recorder) GaugeFunc(name string, fn func(cycle int64) float64) {
	if r == nil || fn == nil {
		return
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// AddAt increments stamped counter id by n, attributed to the interval
// containing cycle. Cycles in already-flushed intervals are dropped;
// cycles in future intervals (e.g. DRAM bandwidth booked ahead of time)
// buffer until that interval flushes.
func (r *Recorder) AddAt(id CounterID, cycle int64, n uint64) {
	if r == nil || id < 0 || !r.buffering() {
		return
	}
	if b := r.bucketFor(cycle / r.interval); b != nil && int(id) < len(b.counters) {
		b.counters[id] += n
	}
}

// StallSpan attributes core's cycles [from, to) to a stall class: the
// chunk is split across interval buckets for the CPI-stack samples, and
// consecutive same-class chunks coalesce into one timeline span. Classes
// index into the Start stall-class names.
func (r *Recorder) StallSpan(core, class int, from, to int64) {
	if r == nil || to <= from || core >= r.cores || class >= len(r.classes) {
		return
	}
	if r.metrics != nil {
		for cur := from; cur < to; {
			idx := cur / r.interval
			end := (idx + 1) * r.interval
			if end > to {
				end = to
			}
			if b := r.bucketFor(idx); b != nil {
				b.cpi[core][class] += end - cur
			}
			cur = end
		}
	}
	if r.tw != nil {
		s := &r.spans[core]
		if s.open && s.class == class && s.end == from {
			s.end = to
			return
		}
		if s.open {
			r.emitSpan(core, s)
		}
		*s = spanState{class: class, start: from, end: to, open: true}
	}
}

// Instant emits a zero-duration timeline marker on core's track at the
// current cycle (e.g. a prefetch sequence start or drop).
func (r *Recorder) Instant(core int, name, cat string) {
	if r == nil || r.tw == nil {
		return
	}
	r.tw.event(traceEvent{Ph: "i", Ts: r.now(), Pid: 0, Tid: core,
		Name: name, Cat: cat, Scope: "t"})
}

// FlowBegin opens an async span and flow arrow (id-matched with FlowEnd)
// at the current cycle — one per tracked prefetch, so issue-to-fill
// latency renders as its own track with arrows into the core timeline.
func (r *Recorder) FlowBegin(core int, id uint64, name, cat string) {
	if r == nil || r.tw == nil {
		return
	}
	ts := r.now()
	r.tw.event(traceEvent{Ph: "b", Ts: ts, Pid: 0, Tid: core, Name: name, Cat: cat, ID: hexID(id)})
	r.tw.event(traceEvent{Ph: "s", Ts: ts, Pid: 0, Tid: core, Name: name + "-flow", Cat: cat, ID: hexID(id)})
}

// FlowEnd closes the async span and flow arrow opened by FlowBegin.
func (r *Recorder) FlowEnd(core int, id uint64, name, cat string) {
	if r == nil || r.tw == nil {
		return
	}
	ts := r.now()
	r.tw.event(traceEvent{Ph: "e", Ts: ts, Pid: 0, Tid: core, Name: name, Cat: cat, ID: hexID(id)})
	r.tw.event(traceEvent{Ph: "f", BP: "e", Ts: ts, Pid: 0, Tid: core, Name: name + "-flow", Cat: cat, ID: hexID(id)})
}

// PrefetchFill writes one completed prefetch's ledger row (a no-op
// without a ledger writer).
func (r *Recorder) PrefetchFill(row LedgerRow) {
	if r == nil || r.ledger == nil {
		return
	}
	r.writeLedger(row)
}

// writeLedger is kept out of line so that an inlined PrefetchFill never
// boxes the caller's row: it stays on the engine's stack whenever the
// ledger is off (the //hot:noescape contract in sim's fill path).
//
//go:noinline
func (r *Recorder) writeLedger(row LedgerRow) { r.writeJSONL(r.ledger, row) }

// DemandLatency records one demand access's issue→ready latency in the
// latency histogram (a no-op without one).
func (r *Recorder) DemandLatency(cycles int64) {
	if r == nil || r.hist == nil {
		return
	}
	r.hist.Record(cycles)
}

// Sample closes the sampled counters' open interval once now has reached
// its end: their growth since the previous sample goes to that interval.
// The engine calls it before the events at now run, so everything
// counted so far happened before the boundary; intervals a wakeup leaps
// over stay zero, as no event ran in them.
func (r *Recorder) Sample(now int64) {
	if r == nil || !r.buffering() || now < (r.sampleIdx+1)*r.interval {
		return
	}
	r.fold()
	r.sampleIdx = now / r.interval
}

// fold adds every sampled counter's growth since its last sample to the
// open interval's bucket, creating the bucket only if something grew.
func (r *Recorder) fold() {
	var b *bucket
	for i := range r.counters {
		c := &r.counters[i]
		if c.srcs == nil {
			continue
		}
		v := c.value()
		if d := v - c.last; d != 0 {
			if b == nil {
				b = r.bucketFor(r.sampleIdx)
			}
			if b != nil {
				b.counters[i] += d
			}
		}
		c.last = v
	}
}

// Tick flushes every interval whose cycles are fully attributed (interval
// end at or before now). The engine calls it after stepping all cores at
// each scheduling point that crossed a boundary (after Sample).
func (r *Recorder) Tick(now int64) {
	if r == nil || !r.buffering() {
		return
	}
	for (r.next+1)*r.interval <= now {
		r.flushNext(-1)
	}
}

// Finish flushes the trailing partial interval plus any future-booked
// buckets, closes open timeline spans, writes the trace footer, and
// returns the first write error encountered anywhere.
func (r *Recorder) Finish(end int64) error {
	if r == nil {
		return nil
	}
	if r.buffering() {
		r.fold() // the tail since the last Sample
		for len(r.buckets) > 0 || r.next*r.interval < end {
			r.flushNext(end)
		}
	}
	if r.tw != nil {
		for core := range r.spans {
			if r.spans[core].open {
				r.emitSpan(core, &r.spans[core])
				r.spans[core].open = false
			}
		}
		r.tw.close()
		if r.err == nil {
			r.err = r.tw.err
		}
	}
	return r.err
}

// buffering reports whether interval buckets accumulate at all: either
// metrics output is enabled, or at least one counter is exported as a
// trace counter track. With neither, AddAt/Tick stay single-branch
// no-ops (the trace-only default path).
func (r *Recorder) buffering() bool {
	return r.metrics != nil || (r.tw != nil && len(r.tracked) > 0)
}

// bucketFor returns the bucket for interval idx, allocating as needed.
// Already-flushed intervals return nil (the caller drops the sample).
func (r *Recorder) bucketFor(idx int64) *bucket {
	r.sealed = true
	if idx < r.next {
		return nil
	}
	off := idx - r.next
	for int64(len(r.buckets)) <= off {
		r.buckets = append(r.buckets, nil)
	}
	if r.buckets[off] == nil {
		b := &bucket{counters: make([]uint64, len(r.counters))}
		b.cpi = make([][]int64, r.cores)
		for i := range b.cpi {
			b.cpi[i] = make([]int64, len(r.classes))
		}
		r.buckets[off] = b
	}
	return r.buckets[off]
}

// MetricsRow is the JSONL schema of one interval sample. Exported so
// tests and downstream analysis unmarshal rows directly.
type MetricsRow struct {
	// Interval is the sample index; the sample covers simulated cycles
	// [Start, End).
	Interval int64 `json:"interval"`
	Start    int64 `json:"start"`
	End      int64 `json:"end"`
	// Cycles is the number of simulated cycles the run actually spent in
	// this interval (End-Start, clamped at the run's final cycle). Each
	// core's CPI entries sum to exactly this value.
	Cycles int64 `json:"cycles"`
	// CPI is the per-core CPI-stack slice: stall-class name to cycles
	// attributed within this interval.
	CPI []map[string]int64 `json:"cpi"`
	// Counters holds every registered counter's delta over the interval.
	Counters map[string]uint64 `json:"counters"`
	// Gauges holds each registered gauge sampled at the interval
	// boundary.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// LedgerRow is the JSONL schema of one prefetched line's issue→fill
// record: the per-line detail behind the prefetch-lifecycle summary.
type LedgerRow struct {
	Core               int    // issuing core
	LineAddr           uint64 // byte address of the line start
	IssuedAt, FilledAt int64  // issue and completion cycles
	Level              uint8  // cache.Level that serviced it (2 L2, 3 L3, 4 DRAM)
	// DemandMerged reports that a demand reached the line while it was
	// still in flight (the "late" lifecycle class).
	DemandMerged bool
}

// flushNext emits the row for interval r.next. finish is the run's final
// cycle when known (Finish), -1 mid-run.
func (r *Recorder) flushNext(finish int64) {
	idx := r.next
	r.next++
	var b *bucket
	if len(r.buckets) > 0 {
		b = r.buckets[0]
		r.buckets = r.buckets[1:]
	}
	start := idx * r.interval
	end := start + r.interval
	// Counter tracks: one "C" sample per tracked counter per interval,
	// timestamped at the interval start, zero-delta intervals included so
	// the track stays continuous.
	if r.tw != nil {
		for _, id := range r.tracked {
			var v uint64
			if b != nil && int(id) < len(b.counters) {
				v = b.counters[id]
			}
			r.tw.event(traceEvent{Ph: "C", Ts: start, Pid: 0, Tid: 0,
				Name: r.counters[id].name, Cat: "counter", Args: map[string]any{"value": v}})
		}
	}
	if r.metrics == nil {
		return
	}
	row := MetricsRow{
		Interval: idx,
		Start:    start,
		End:      end,
		Cycles:   r.interval,
		Counters: map[string]uint64{},
	}
	if finish >= 0 {
		if c := finish - start; c < row.Cycles {
			row.Cycles = c
		}
		if row.Cycles < 0 {
			row.Cycles = 0
		}
	}
	row.CPI = make([]map[string]int64, r.cores)
	for core := 0; core < r.cores; core++ {
		m := make(map[string]int64, len(r.classes))
		for ci, name := range r.classes {
			if b != nil {
				m[name] = b.cpi[core][ci]
			} else {
				m[name] = 0
			}
		}
		row.CPI[core] = m
	}
	for i := range r.counters {
		var v uint64
		if b != nil {
			v = b.counters[i]
		}
		row.Counters[r.counters[i].name] = v
	}
	if len(r.gauges) > 0 {
		sampleAt := end
		if finish >= 0 && finish < sampleAt {
			sampleAt = finish
		}
		row.Gauges = make(map[string]float64, len(r.gauges))
		for _, g := range r.gauges {
			row.Gauges[g.name] = g.fn(sampleAt)
		}
	}
	r.writeJSONL(r.metrics, row)
}

// writeJSONL appends v to w as one JSON line, retaining the first error.
func (r *Recorder) writeJSONL(w io.Writer, v any) {
	buf, err := json.Marshal(v)
	if err == nil {
		_, err = w.Write(append(buf, '\n'))
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// emitSpan writes one coalesced stall span as a complete ("X") event.
func (r *Recorder) emitSpan(core int, s *spanState) {
	name := "?"
	if s.class >= 0 && s.class < len(r.classes) {
		name = r.classes[s.class]
	}
	r.tw.event(traceEvent{Ph: "X", Ts: s.start, Dur: s.end - s.start,
		Pid: 0, Tid: core, Name: name, Cat: "stall"})
}

// hexID renders a flow/async id the way trace viewers expect.
func hexID(id uint64) string {
	var buf [18]byte
	return string(strconv.AppendUint(append(buf[:0], "0x"...), id, 16))
}
