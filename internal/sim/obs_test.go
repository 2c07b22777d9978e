package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"prodigy/internal/core"
	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/trace"
)

// runIrregular executes the irregular workload once, optionally
// instrumented, and returns the result.
func runIrregular(t testing.TB, n int, rec *obs.Recorder) Result {
	space, idx, data, d := irregularSetup(t, n)
	cfg := Default(1)
	cfg.Prefetcher = core.New(d, core.DefaultConfig())
	cfg.Obs = rec
	res, err := Run(cfg, space, trace.NewGen(1), irregularWorkload(idx, data))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObsOnDoesNotChangeResult checks instrumentation is purely
// observational: with a recorder attached, the simulated machine retires
// the same instructions in the same cycles with identical cache behaviour.
func TestObsOnDoesNotChangeResult(t *testing.T) {
	const n = 1 << 13
	base := runIrregular(t, n, nil)
	rec := obs.New(obs.Options{Interval: 1000, Trace: io.Discard, Metrics: io.Discard})
	instrumented := runIrregular(t, n, rec)
	if instrumented.Cycles != base.Cycles {
		t.Errorf("cycles: obs-on %d vs obs-off %d", instrumented.Cycles, base.Cycles)
	}
	if instrumented.Agg != base.Agg {
		t.Errorf("CPI stacks diverged: %+v vs %+v", instrumented.Agg, base.Agg)
	}
	if instrumented.Cache != base.Cache {
		t.Errorf("cache stats diverged: %+v vs %+v", instrumented.Cache, base.Cache)
	}
}

// TestObsCountersMatchResultStats cross-checks the interval counters
// against the simulator's own aggregate statistics: every counter summed
// over the rows must equal the Result field it samples (or, for the two
// stamped DRAM counters, the Stats total it is booked alongside), and the
// per-interval CPI slices must add up to the run's attributed cycles.
func TestObsCountersMatchResultStats(t *testing.T) {
	var metrics bytes.Buffer
	rec := obs.New(obs.Options{Interval: 500, Metrics: &metrics})
	res := runIrregular(t, 1<<12, rec)

	sums := map[string]uint64{}
	var attributed int64
	for _, line := range bytes.Split(bytes.TrimSpace(metrics.Bytes()), []byte("\n")) {
		var row obs.MetricsRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad metrics row %q: %v", line, err)
		}
		for name, v := range row.Counters {
			sums[name] += v
		}
		for _, stack := range row.CPI {
			for _, v := range stack {
				attributed += v
			}
		}
	}
	var pd core.Stats
	for _, p := range res.Prefetchers {
		s := p.(*core.Prodigy).Stats
		pd.SeqStarted += s.SeqStarted
		pd.SeqDropped += s.SeqDropped
		pd.PFHRFull += s.PFHRFull
	}
	c := res.Cache
	want := map[string]uint64{
		"cache.demand":            c.DemandAccesses,
		"cache.l1_hit":            c.DemandL1Hits,
		"cache.l2_hit":            c.DemandL2Hits,
		"cache.l3_hit":            c.DemandL3Hits,
		"cache.mem":               c.DemandMem,
		"cache.pf_fill":           c.PrefetchFills,
		"cache.writeback":         c.Writebacks,
		"cache.pf_timely":         c.PrefetchL1Hits + c.PrefetchL2Hits + c.PrefetchL3Hits,
		"cache.pf_evicted_unused": c.PrefetchEvicted,
		"sim.pf_issued":           res.Sim.PrefetchIssued,
		"sim.late_merge":          res.Sim.LateMerges,
		"sim.pf_mshr_full":        res.Sim.PrefetchMSHRFull,
		"sim.pf_redundant":        res.Sim.PrefetchMergedResident,
		"dram.reads":              res.DRAM.Requests,
		"dram.writes":             res.DRAM.Writes,
		"dram.busy_cycles":        res.DRAM.BusyCycles,
		"dram.queue_delay":        res.DRAM.TotalQueueDelay,
		"prodigy.seq_started":     pd.SeqStarted,
		"prodigy.seq_dropped":     pd.SeqDropped,
		"prodigy.pfhr_full":       pd.PFHRFull,
	}
	if len(sums) != len(want) {
		t.Errorf("rows carry %d counters, the check covers %d: %v", len(sums), len(want), sums)
	}
	for name, w := range want {
		if got, ok := sums[name]; !ok || got != w {
			t.Errorf("summed %s = %d (present %v), Result says %d", name, got, ok, w)
		}
	}
	if res.Cache.DemandAccesses == 0 || pd.SeqStarted == 0 {
		t.Fatal("run exercised neither the hierarchy nor Prodigy; the check is vacuous")
	}
	if attributed != res.Cycles {
		t.Errorf("interval CPI slices cover %d cycles, run took %d", attributed, res.Cycles)
	}
}

// TestIntervalBoundariesExactAcrossSkips pins the interval-metrics
// contract under the wakeup scheduler: a DRAM-bound single-core run leaps
// hundreds of cycles per wakeup, so one scheduling step routinely crosses
// several 50-cycle interval boundaries at once. The rows the recorder
// emits must still sit on the exact fixed grid — interval i covers
// [i*50, (i+1)*50), with only the final row clamped at the run's end — and
// each row's per-core CPI slice must account for every cycle of its
// interval. Before the pre-flush attribution sweep in Run this failed:
// a sleeping core's stall time was attributed only at its next step, so
// rows flushed mid-sleep under-counted and later rows over-counted.
func TestIntervalBoundariesExactAcrossSkips(t *testing.T) {
	const interval = 50
	var metrics bytes.Buffer
	rec := obs.New(obs.Options{Interval: interval, Metrics: &metrics})
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.Obs = rec
	res, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
		// One load per cache line: every access is a fresh DRAM miss, so
		// the core sleeps for the full memory latency between wakeups.
		for i := 0; i < len(arr.Data); i += 16 {
			g.Load(0, 1, arr.Addr(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 4*interval {
		t.Fatalf("run too short (%d cycles) to cross multiple boundaries", res.Cycles)
	}

	var rows []obs.MetricsRow
	for _, line := range bytes.Split(bytes.TrimSpace(metrics.Bytes()), []byte("\n")) {
		var row obs.MetricsRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad metrics row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	wantRows := (res.Cycles + interval - 1) / interval
	if int64(len(rows)) != wantRows {
		t.Fatalf("got %d interval rows for a %d-cycle run, want %d", len(rows), res.Cycles, wantRows)
	}
	for i, row := range rows {
		if row.Interval != int64(i) {
			t.Fatalf("row %d has interval index %d", i, row.Interval)
		}
		if row.Start != int64(i)*interval {
			t.Fatalf("row %d starts at %d, want %d (exact grid)", i, row.Start, int64(i)*interval)
		}
		if row.End != row.Start+interval {
			t.Fatalf("row %d ends at %d, want %d (End stays on the grid)", i, row.End, row.Start+interval)
		}
		wantCycles := int64(interval)
		if c := res.Cycles - row.Start; c < wantCycles {
			wantCycles = c // final interval: only the simulated tail counts
		}
		if row.Cycles != wantCycles {
			t.Fatalf("row %d claims %d cycles for [%d,%d), want %d", i, row.Cycles, row.Start, row.End, wantCycles)
		}
		for core, stack := range row.CPI {
			var sum int64
			for _, v := range stack {
				sum += v
			}
			if sum != row.Cycles {
				t.Fatalf("row %d core %d attributes %d of %d cycles", i, core, sum, row.Cycles)
			}
		}
	}
}

// failWriter fails every write, standing in for a full disk.
type failWriter struct{}

var errDiskFull = errors.New("disk full")

func (failWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestAbortReportsExportError: an interrupted run whose metrics flush
// fails reports both causes — the interrupt sentinel still classifies the
// abort, and the export error is not dropped.
func TestAbortReportsExportError(t *testing.T) {
	space, idx, data, d := irregularSetup(t, 1<<12)
	cfg := Default(1)
	cfg.Prefetcher = core.New(d, core.DefaultConfig())
	cfg.Obs = obs.New(obs.Options{Interval: 100, Metrics: failWriter{}})
	polls := 0
	cfg.Interrupt = func() bool { polls++; return polls > 4 }
	res, err := Run(cfg, space, trace.NewGen(1), irregularWorkload(idx, data))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want the metrics write error joined in", err)
	}
	if res.Cycles == 0 {
		t.Fatal("aborted before any interval was written; the check is vacuous")
	}
}

// BenchmarkRunObsOff measures the simulator with instrumentation compiled
// in but disabled (nil recorder): the acceptance bar is that this stays
// within noise (<2%) of the pre-instrumentation simulator, since every
// disabled hook is a single nil check.
func BenchmarkRunObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runIrregular(b, 1<<13, nil)
	}
}

// BenchmarkRunObsOn measures the cost of full instrumentation (trace +
// metrics to io.Discard) for comparison with BenchmarkRunObsOff.
func BenchmarkRunObsOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := obs.New(obs.Options{Interval: 10000, Trace: io.Discard, Metrics: io.Discard})
		runIrregular(b, 1<<13, rec)
	}
}
