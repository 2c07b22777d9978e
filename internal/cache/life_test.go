package cache

import "testing"

// TestLifeAttributionPerCore pins the cross-core attribution rule: a fill
// and its eventual outcome belong to the core that *issued* the prefetch
// (via the packed line tag), while demand misses belong to the core that
// demanded.
func TestLifeAttributionPerCore(t *testing.T) {
	h := mustNew(t, tinyConfig(2))
	// Core 1 prefetches a line from memory; core 1's ledger gets the fill.
	h.FillPrefetch(1, 0, LvlMem)
	if h.Life[1].Fills != 1 || h.Life[1].FillsMem != 1 {
		t.Fatalf("core1 fills = %+v, want 1/1", h.Life[1])
	}
	if h.Life[0].Fills != 0 {
		t.Fatalf("core0 charged for core1's fill: %+v", h.Life[0])
	}
	// Core 0 demands the line (L3 hit, first use): the timely outcome is
	// credited to the ISSUING core (1), carried by the line tag.
	res := h.Access(0, 0, false)
	if res.Level == LvlMem {
		t.Fatalf("prefetched line missed: %+v", res)
	}
	if h.Life[1].Timely != 1 || h.Life[1].TimelyMem != 1 {
		t.Fatalf("core1 timely = %+v, want 1/1 (issuer credit)", h.Life[1])
	}
	if h.Life[0].Timely != 0 {
		t.Fatalf("core0 credited for core1's prefetch: %+v", h.Life[0])
	}
	// Demand misses stay with the demanding core.
	h.Access(0, 1<<20, false)
	if h.Life[0].DemandMisses != 1 || h.Life[1].DemandMisses != 0 {
		t.Fatalf("demand-miss attribution: core0 %+v core1 %+v", h.Life[0], h.Life[1])
	}
}

// TestLifeFirstUseOnly: only the first demand to a prefetched line counts
// as the timely outcome; re-hits must not inflate the class.
func TestLifeFirstUseOnly(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	h.FillPrefetch(0, 0, LvlMem)
	h.Access(0, 0, false)
	h.Access(0, 0, false)
	h.Access(0, 16, false) // same line, different word
	if h.Life[0].Timely != 1 {
		t.Fatalf("timely = %d, want 1 (first use only)", h.Life[0].Timely)
	}
}

// TestLifeEvictionMatchesGlobalCounter: the per-core evicted-unused sum
// tracks the existing Fig. 15 PrefetchEvicted counter exactly (same
// event, same place: L3 eviction).
func TestLifeEvictionMatchesGlobalCounter(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	// 4KB L3 = 64 lines; fill 3x that, never demand.
	for i := 0; i < 192; i++ {
		h.FillPrefetch(0, uint64(i)*64, LvlMem)
	}
	if h.Stats.PrefetchEvicted == 0 {
		t.Fatal("no unused evictions after overflowing the L3")
	}
	var sum uint64
	for c := range h.Life {
		sum += h.Life[c].EvictedUnused
	}
	if sum != h.Stats.PrefetchEvicted {
		t.Fatalf("per-core evicted sum %d != global %d", sum, h.Stats.PrefetchEvicted)
	}
}

// TestLifeLevelFillsNotMem: a prefetch serviced inside the hierarchy (L3
// hit promoted to L1) counts as a fill but not a memory fill, so coverage
// only credits DRAM-serviced prefetches.
func TestLifeLevelFillsNotMem(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	h.Access(0, 0, false) // bring the line in via demand
	h.FillPrefetch(0, 4096, LvlL3)
	if h.Life[0].FillsMem != 0 {
		t.Fatalf("L3-serviced prefetch counted as memory fill: %+v", h.Life[0])
	}
	if h.Life[0].Fills != 1 {
		t.Fatalf("fills = %d, want 1", h.Life[0].Fills)
	}
}

// TestTelemetryAllocFree pins the telemetry contract directly in the test
// suite (the bench-json gate covers the same property out-of-process):
// demand and fill paths, with their always-on lifecycle counters,
// allocate nothing.
func TestTelemetryAllocFree(t *testing.T) {
	h := mustNew(t, tinyConfig(1))
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		n := uint64(i)
		i++
		h.Access(0, (n%64)*64, false)
		h.FillPrefetch(0, 1<<24+n*64, LvlMem)
		h.Access(0, 1<<24+n*64, false) // timely-outcome path
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs/op, want 0", allocs)
	}
}
