package sim

import (
	"reflect"
	"testing"

	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/stats"
	"prodigy/internal/trace"
)

// serialConfig returns a single-issue, single-entry-ROB machine config:
// each load dispatches only after the previous one retires, so every
// recorded latency is exactly one access's issue→ready wait (the memlat
// chase discipline; see internal/exp memlat sweep).
func serialConfig(cores int) Config {
	cfg := Default(cores)
	cfg.CPU.Width = 1
	cfg.CPU.ROBSize = 1
	return cfg
}

// latencyRecorder returns a recorder whose only output is a demand-
// latency histogram (the memlat calibration setup).
func latencyRecorder() (*obs.Recorder, *stats.Histogram) {
	h := &stats.Histogram{}
	return obs.New(obs.Options{Latency: h}), h
}

// TestLatencyHookPlateaus pins the Table-I composition end to end: a
// cold load pays walk + L3 lookup + DRAM access, and an immediate
// re-load of the same line pays exactly the L1 hit latency.
func TestLatencyHookPlateaus(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU64("a", 64)
	cfg := serialConfig(1)
	var h *stats.Histogram
	cfg.Obs, h = latencyRecorder()
	_, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
		g.Load(0, 1, arr.Addr(0))
		g.Load(0, 2, arr.Addr(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCold := cfg.TLB.WalkLat + int64(cfg.Cache.L3Lat) + cfg.DRAM.AccessLat
	warm := int64(cfg.Cache.L1Lat)
	want := []stats.HistBucket{{Lo: warm, Hi: warm, Count: 1}, {Lo: wantCold, Hi: wantCold, Count: 1}}
	if got := h.Buckets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("latencies = %+v, want %+v (warm: L1 hit; cold: walk %d + L3 %d + DRAM %d)",
			got, want, cfg.TLB.WalkLat, cfg.Cache.L3Lat, cfg.DRAM.AccessLat)
	}
}

// Plain stores drain through the store buffer at now+1; they carry no
// memory-latency information and must not pollute the histogram.
func TestLatencyHookSkipsStores(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU64("a", 64)
	cfg := serialConfig(1)
	var h *stats.Histogram
	cfg.Obs, h = latencyRecorder()
	_, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
		g.Load(0, 1, arr.Addr(0))
		g.Store(0, 2, arr.Addr(8))
		g.Load(0, 3, arr.Addr(16))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Total(); n != 2 {
		t.Fatalf("recorded %d latencies, want 2 (stores skipped)", n)
	}
}

// Arming the latency histogram must not move a single cycle: it observes
// the schedule, it does not participate in it.
func TestLatencyHookDoesNotPerturbTiming(t *testing.T) {
	rec, h := latencyRecorder()
	with := stridePairRun(t, rec)
	without := stridePairRun(t, nil)
	if with.Cycles != without.Cycles || with.Agg != without.Agg ||
		with.Cache != without.Cache || with.Sim != without.Sim || with.DRAM != without.DRAM {
		t.Fatalf("histogram perturbed the run: %d vs %d cycles", with.Cycles, without.Cycles)
	}
	if h.Total() == 0 {
		t.Fatal("histogram recorded nothing")
	}
}

// TestPrefetchChargedTLBWalk asserts the §VI-E contract directly on the
// machine: a prefetch to an untranslated page pays WalkLat inside its
// fill time, composed exactly as memIssueAt (walk + L3 lookup) before
// the DRAM access.
func TestPrefetchChargedTLBWalk(t *testing.T) {
	space := memspace.New()
	space.AllocU64("a", 1024)
	m := mustMachine(t, serialConfig(1), space, trace.NewGen(1))
	addr := uint64(memspace.Base)
	if !m.issuePrefetch(0, addr, prefetch.UntrackedMeta) {
		t.Fatal("prefetch dropped")
	}
	tb := m.tlbs[0]
	if tb.Stats.Accesses != 1 || tb.Stats.Misses != 1 {
		t.Fatalf("TLB stats = %+v, want one access, one miss", tb.Stats)
	}
	if len(m.events) != 1 {
		t.Fatalf("%d in-flight events, want 1", len(m.events))
	}
	want := m.cfg.TLB.WalkLat + int64(m.cfg.Cache.L3Lat) + m.cfg.DRAM.AccessLat
	if got := m.events[0].ready; got != want {
		t.Fatalf("prefetch fill ready = %d, want %d (WalkLat %d + L3 %d + DRAM %d)",
			got, want, m.cfg.TLB.WalkLat, m.cfg.Cache.L3Lat, m.cfg.DRAM.AccessLat)
	}
}

// TestPrefetchSharesDemandTLB asserts prefetches consult the same D-TLB
// as demand loads: a page walked by a demand access is a TLB hit for a
// later prefetch, which is then not charged the walk.
func TestPrefetchSharesDemandTLB(t *testing.T) {
	space := memspace.New()
	space.AllocU64("a", 1024)
	m := mustMachine(t, serialConfig(1), space, trace.NewGen(1))
	base := uint64(memspace.Base)
	// Demand load walks the page and installs the translation.
	m.demandAccess(0, 0, trace.Instr{Kind: trace.Load, Addr: base, PC: 1})
	tb := m.tlbs[0]
	if tb.Stats.Accesses != 1 || tb.Stats.Misses != 1 {
		t.Fatalf("TLB stats after demand = %+v, want one access, one miss", tb.Stats)
	}
	// Prefetch a different, uncached line of the same page, far enough in
	// the future that the DRAM queues are drained: the only latencies left
	// are translation (a hit: 0) + L3 lookup + DRAM access.
	now := int64(100000)
	m.now = now
	if !m.issuePrefetch(0, base+64, prefetch.UntrackedMeta) {
		t.Fatal("prefetch dropped")
	}
	if tb.Stats.Accesses != 2 || tb.Stats.Misses != 1 {
		t.Fatalf("TLB stats after prefetch = %+v, want shared TLB hit (2 accesses, 1 miss)", tb.Stats)
	}
	var ev *pfEvent
	for _, e := range m.events {
		if e.lineAddr == base+64 {
			ev = e
		}
	}
	if ev == nil {
		t.Fatal("no in-flight event for the prefetched line")
	}
	want := now + int64(m.cfg.Cache.L3Lat) + m.cfg.DRAM.AccessLat
	if ev.ready != want {
		t.Fatalf("prefetch fill ready = %d, want %d (no walk: translation already resident)", ev.ready, want)
	}
}
