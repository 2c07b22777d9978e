package sim

import (
	"bytes"
	"encoding/json"
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
// against the simulator's own aggregate statistics: the summed
// "cache.demand" counter must equal Result.Cache.DemandAccesses, and the
// per-interval CPI slices must add up to the run's attributed cycles.
func TestObsCountersMatchResultStats(t *testing.T) {
	var metrics bytes.Buffer
	rec := obs.New(obs.Options{Interval: 500, Metrics: &metrics})
	res := runIrregular(t, 1<<12, rec)

	var demand uint64
	var attributed int64
	for _, line := range bytes.Split(bytes.TrimSpace(metrics.Bytes()), []byte("\n")) {
		var row obs.MetricsRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad metrics row %q: %v", line, err)
		}
		demand += row.Counters["cache.demand"]
		for _, stack := range row.CPI {
			for _, v := range stack {
				attributed += v
			}
		}
	}
	if demand != res.Cache.DemandAccesses {
		t.Errorf("summed cache.demand = %d, Result says %d", demand, res.Cache.DemandAccesses)
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
