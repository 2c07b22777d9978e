package sim

import (
	"errors"
	"strings"
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
)

func mustMachine(t testing.TB, cfg Config, space *memspace.Space, gen *trace.Gen) *Machine {
	t.Helper()
	m, err := NewMachine(cfg, space, gen)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seqWorkload emits a sequential scan over arr (one load per element).
func seqWorkload(arr *memspace.U32) func(*trace.Gen) {
	return func(g *trace.Gen) {
		for i := range arr.Data {
			g.Load(0, 1, arr.Addr(i))
			g.Ops(0, 2, 1)
		}
	}
}

func TestSequentialScanCompletes(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 4096)
	cfg := Default(1)
	res, err := Run(cfg, space, trace.NewGen(1), seqWorkload(arr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Retired != 2*4096 {
		t.Fatalf("retired = %d, want %d", res.Agg.Retired, 2*4096)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	// One miss per 16-element line.
	if res.Cache.DemandMem != 4096/16 {
		t.Fatalf("DRAM accesses = %d, want %d", res.Cache.DemandMem, 4096/16)
	}
}

func TestStackAccountingMatchesCycles(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 2048)
	res, err := Run(Default(1), space, trace.NewGen(1), seqWorkload(arr))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Stacks {
		if s.Total() != res.Cycles {
			t.Fatalf("core %d attributed %d of %d cycles", i, s.Total(), res.Cycles)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		space := memspace.New()
		arr := space.AllocU32("a", 2048)
		res, err := Run(Default(2), space, trace.NewGen(2), func(g *trace.Gen) {
			for i := range arr.Data {
				g.Load(i%2, 1, arr.Addr(i))
			}
			g.Barrier()
			for i := range arr.Data {
				g.Load(i%2, 2, arr.Addr(len(arr.Data)-1-i))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Agg.Retired != b.Agg.Retired || a.Cache != b.Cache {
		t.Fatalf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestBarrierSynchronizesCores(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 8192)
	// Core 0 does 10x the work before the barrier; core 1 must wait.
	res, err := Run(Default(2), space, trace.NewGen(2), func(g *trace.Gen) {
		for i := 0; i < 5000; i++ {
			g.Load(0, 1, arr.Addr(i%8192))
		}
		g.Ops(1, 2, 10)
		g.Barrier()
		g.Ops(0, 3, 10)
		g.Ops(1, 3, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Core 1's stack must be dominated by other-stall (barrier wait).
	c1 := res.Stacks[1]
	if c1.Cycles[cpu.OtherStall] < res.Cycles/2 {
		t.Fatalf("core1 barrier wait = %d of %d cycles", c1.Cycles[cpu.OtherStall], res.Cycles)
	}
}

func TestStridePrefetcherSpeedsUpScan(t *testing.T) {
	mk := func(fac prefetch.Factory) Result {
		space := memspace.New()
		arr := space.AllocU32("a", 1<<16)
		cfg := Default(1)
		cfg.Prefetcher = fac
		res, err := Run(cfg, space, trace.NewGen(1), seqWorkload(arr))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(nil)
	pf := mk(prefetch.Stride(prefetch.DefaultStrideConfig()))
	if pf.Cycles >= base.Cycles {
		t.Fatalf("stride prefetching did not help: %d vs %d", pf.Cycles, base.Cycles)
	}
	if pf.Sim.PrefetchIssued == 0 || pf.Cache.PrefetchFills == 0 {
		t.Fatal("no prefetch activity recorded")
	}
}

// irregularSetup builds an indirect traversal: for each i, load idx[i]
// then load data[idx[i]] (single-valued indirection), with a DIG.
func irregularSetup(t testing.TB, n int) (*memspace.Space, *memspace.U32, *memspace.U32, *dig.DIG) {
	t.Helper()
	space := memspace.New()
	idx := space.AllocU32("idx", n)
	data := space.AllocU32("data", n)
	r := uint64(12345)
	for i := range idx.Data {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		idx.Data[i] = uint32(r % uint64(n))
	}
	b := dig.NewBuilder()
	b.RegisterNode("idx", idx.BaseAddr, uint64(n), 4, 0)
	b.RegisterNode("data", data.BaseAddr, uint64(n), 4, 1)
	b.RegisterTravEdge(idx.BaseAddr, data.BaseAddr, dig.SingleValued)
	b.RegisterTrigEdge(idx.BaseAddr, dig.TriggerConfig{})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return space, idx, data, d
}

// irregularWorkload models the paper's bottleneck shape: an indirect load
// followed by a branch on the loaded value (BFS's "if !visited" pattern).
// The data-dependent branch serializes iterations, making the run
// latency-bound rather than bandwidth-bound.
func irregularWorkload(idx, data *memspace.U32) func(*trace.Gen) {
	return func(g *trace.Gen) {
		for i := range idx.Data {
			v := int(idx.Data[i])
			g.Load(0, 1, idx.Addr(i))
			g.Load(0, 2, data.Addr(v))
			g.Branch(0, 3, v%2 == 0, true)
			g.Ops(0, 4, 1)
		}
	}
}

func TestProdigySpeedsUpIrregularWorkload(t *testing.T) {
	const n = 1 << 15
	mk := func(withProdigy bool) Result {
		space, idx, data, d := irregularSetup(t, n)
		cfg := Default(1)
		if withProdigy {
			cfg.Prefetcher = core.New(d, core.DefaultConfig())
		}
		res, err := Run(cfg, space, trace.NewGen(1), irregularWorkload(idx, data))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(false)
	pro := mk(true)
	if base.Agg.Cycles[cpu.DRAMStall] == 0 {
		t.Fatal("baseline has no DRAM stalls; workload too small")
	}
	speedup := float64(base.Cycles) / float64(pro.Cycles)
	if speedup < 1.3 {
		t.Fatalf("Prodigy speedup = %.2fx on irregular scan, want > 1.3x", speedup)
	}
	// DRAM stalls must shrink substantially.
	if pro.Agg.Cycles[cpu.DRAMStall] >= base.Agg.Cycles[cpu.DRAMStall] {
		t.Fatalf("DRAM stalls did not shrink: %d -> %d",
			base.Agg.Cycles[cpu.DRAMStall], pro.Agg.Cycles[cpu.DRAMStall])
	}
}

func TestPrefetchUsefulnessTracked(t *testing.T) {
	const n = 1 << 14
	space, idx, data, d := irregularSetup(t, n)
	cfg := Default(1)
	cfg.Prefetcher = core.New(d, core.DefaultConfig())
	res, err := Run(cfg, space, trace.NewGen(1), irregularWorkload(idx, data))
	if err != nil {
		t.Fatal(err)
	}
	useful := res.Cache.PrefetchL1Hits + res.Cache.PrefetchL2Hits + res.Cache.PrefetchL3Hits + res.Sim.LateMerges
	if useful == 0 {
		t.Fatal("no useful prefetches recorded")
	}
	if res.Cache.PrefetchFills == 0 {
		t.Fatal("no prefetch fills")
	}
}

func TestSoftwarePrefetchInstructions(t *testing.T) {
	// Software prefetching at distance 8 on the irregular stream.
	const n = 1 << 14
	mk := func(soft bool) Result {
		space, idx, data, _ := irregularSetup(t, n)
		cfg := Default(1)
		res, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
			const dist = 8
			for i := range idx.Data {
				if soft && i+dist < n {
					g.SoftPrefetch(0, 9, idx.Addr(i+dist))
					g.SoftPrefetch(0, 10, data.Addr(int(idx.Data[i+dist])))
				}
				v := int(idx.Data[i])
				g.Load(0, 1, idx.Addr(i))
				g.Load(0, 2, data.Addr(v))
				g.Branch(0, 3, v%2 == 0, true)
				g.Ops(0, 4, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(false)
	soft := mk(true)
	if soft.Cycles >= base.Cycles {
		t.Fatalf("software prefetching did not help: %d vs %d", soft.Cycles, base.Cycles)
	}
}

func TestMultiCorePartitionedScan(t *testing.T) {
	const cores = 4
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	res, err := Run(Default(cores), space, trace.NewGen(cores), func(g *trace.Gen) {
		per := len(arr.Data) / cores
		for c := 0; c < cores; c++ {
			for i := c * per; i < (c+1)*per; i++ {
				g.Load(c, 1, arr.Addr(i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Retired != 1<<14 {
		t.Fatalf("retired = %d", res.Agg.Retired)
	}
	// Parallel run must be much faster than 1 core would need (roughly
	// bounded by per-core work).
	single := int64(1 << 14)
	if res.Cycles >= single {
		t.Fatalf("4 cores took %d cycles for %d loads; no parallelism", res.Cycles, single)
	}
}

func TestInFlightMergeCountsLatePrefetch(t *testing.T) {
	// A demand immediately after a prefetch to the same line must merge.
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	cfg := Default(1)
	// Prefetcher that prefetches the demanded line + next line once.
	cfg.Prefetcher = prefetch.Stride(prefetch.StrideConfig{TableSize: 8, Degree: 8})
	res, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
		// Strided misses back-to-back: the stride prefetcher issues ahead,
		// then demands arrive before fills complete.
		for i := 0; i < len(arr.Data); i += 16 {
			g.Load(0, 1, arr.Addr(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.LateMerges == 0 {
		t.Fatal("expected late prefetch merges on back-to-back strided misses")
	}
}

func TestIPCAndLevels(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 256)
	res, err := Run(Default(1), space, trace.NewGen(1), func(g *trace.Gen) {
		// Touch everything (cold), then re-scan (hot): second pass hits L1.
		for pass := 0; pass < 2; pass++ {
			for i := range arr.Data {
				g.Load(0, 1, arr.Addr(i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Fatal("IPC not computed")
	}
	if res.Cache.DemandL1Hits == 0 {
		t.Fatal("second pass should hit L1")
	}
	var zero Result
	if zero.IPC() != 0 {
		t.Fatal("empty result IPC should be 0")
	}
}

func TestLevelServiceClassification(t *testing.T) {
	// A load that hits an in-flight prefetch line reports the prefetch's
	// service level for stall classification.
	space := memspace.New()
	arr := space.AllocU32("a", 64)
	m := mustMachine(t, Default(1), space, trace.NewGen(1))
	m.now = 0
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	ready, level := m.demandAccess(0, 1, trace.Instr{Kind: trace.Load, Addr: arr.Addr(0), PC: 1})
	if level != cache.LvlMem {
		t.Fatalf("merged demand level = %v, want MEM", level)
	}
	if ready <= 1 {
		t.Fatal("merged demand should wait for the fill")
	}
	if m.stats.LateMerges != 1 {
		t.Fatal("late merge not counted")
	}
}

func TestPrefetchMSHRCap(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.PrefetchMSHRs = 4
	m := mustMachine(t, cfg, space, trace.NewGen(1))
	m.now = 0
	accepted := 0
	for i := 0; i < 10; i++ {
		if m.issuePrefetch(0, arr.Addr(i*64), prefetch.UntrackedMeta) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted = %d, want 4 (MSHR cap)", accepted)
	}
	if m.stats.PrefetchMSHRFull != 6 {
		t.Fatalf("MSHR-full drops = %d, want 6", m.stats.PrefetchMSHRFull)
	}
	// Completions free the MSHRs.
	m.processEvents(1 << 30)
	if m.inflightPerCore[0] != 0 {
		t.Fatalf("inflight count = %d after drain", m.inflightPerCore[0])
	}
	if !m.issuePrefetch(0, arr.Addr(4096), prefetch.UntrackedMeta) {
		t.Fatal("issue after drain should be accepted")
	}
}

func TestDemandPriorityKeepsDemandsFast(t *testing.T) {
	// A storm of prefetches must not slow demand misses down much.
	space := memspace.New()
	arr := space.AllocU32("a", 1<<16)
	cfg := Default(1)
	m := mustMachine(t, cfg, space, trace.NewGen(1))
	m.now = 0
	for i := 0; i < 100; i++ {
		m.issuePrefetch(0, arr.Addr(i*16), prefetch.UntrackedMeta)
	}
	ready, level := m.demandAccess(0, 0, trace.Instr{Kind: trace.Load, Addr: arr.Addr(1 << 15), PC: 1})
	if level != cache.LvlMem {
		t.Fatalf("level = %v", level)
	}
	unloaded := int64(cfg.DRAM.AccessLat) + int64(cfg.Cache.L3Lat) + cfg.TLB.WalkLat
	if ready > unloaded+20 {
		t.Fatalf("demand behind prefetch storm ready at %d, want <= ~%d", ready, unloaded)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.MaxCycles = 100 // far below what the workload needs
	_, err := Run(cfg, space, trace.NewGen(1), seqWorkload(arr))
	if err == nil {
		t.Fatal("expected MaxCycles error")
	}
}

func TestInterruptAborts(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.Interrupt = func() bool { return true }
	_, err := Run(cfg, space, trace.NewGen(1), seqWorkload(arr))
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("expected interrupt error, got %v", err)
	}
}

func TestInterruptPolledDuringRun(t *testing.T) {
	// An interrupt raised after some polls still aborts mid-run; a never-
	// firing interrupt must not change the result.
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	polls := 0
	cfg := Default(1)
	cfg.Interrupt = func() bool { polls++; return polls > 3 }
	_, err := Run(cfg, space, trace.NewGen(1), seqWorkload(arr))
	if err == nil {
		t.Fatal("expected interrupt error")
	}
	if polls != 4 {
		t.Fatalf("polls = %d, want 4", polls)
	}

	space2 := memspace.New()
	arr2 := space2.AllocU32("a", 1<<14)
	cfg2 := Default(1)
	cfg2.Interrupt = func() bool { return false }
	res, err := Run(cfg2, space2, trace.NewGen(1), seqWorkload(arr2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Retired != 2*(1<<14) {
		t.Fatalf("retired = %d", res.Agg.Retired)
	}
}

func TestInterruptUnwindsProducer(t *testing.T) {
	// An interrupted run returns at the poll that trips it and unwinds the
	// producer at the barrier where it is parked, instead of running the
	// rest of the kernel. The interrupt trips while epoch 2 is being
	// simulated, when the producer has passed one barrier.
	const epochs = 100
	space := memspace.New()
	arr := space.AllocU32("a", 1<<12)
	passed, unwound := 0, false
	cfg := Default(1)
	cfg.Interrupt = func() bool { return passed >= 1 }
	res, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
		defer func() { unwound = true }()
		for e := 0; e < epochs; e++ {
			seqWorkload(arr)(g)
			g.Barrier()
			passed++
		}
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if passed > 2 || !unwound {
		t.Fatalf("producer passed %d of %d barriers (want at most 2), unwound %v (want true)", passed, epochs, unwound)
	}
	if res.Agg.Retired == 0 {
		t.Fatal("aborted run reported no partial stats")
	}
}

// TestNewMachineRejectsBadConfig: every bad sweep point must surface as an
// error from NewMachine and from Run — never a panic inside a runner
// worker, and never a run that spins to MaxCycles.
func TestNewMachineRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"non-power-of-two L1 sets", func(c *Config) { c.Cache.L1Size = 768 }},
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"negative cores", func(c *Config) { c.Cores = -1 }},
		{"more cores than the hierarchy", func(c *Config) { c.Cache.Cores = 1 }},
		{"zero width", func(c *Config) { c.CPU.Width = 0 }},
		{"zero ROB", func(c *Config) { c.CPU.ROBSize = 0 }},
		{"negative width", func(c *Config) { c.CPU.Width = -4 }},
		{"negative predictor bits", func(c *Config) { c.CPU.BPBits = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			cfg := Default(2)
			tc.edit(&cfg)
			if _, err := NewMachine(cfg, memspace.New(), trace.NewGen(2)); err == nil {
				t.Fatal("NewMachine accepted the config")
			}
			_, err := Run(cfg, memspace.New(), trace.NewGen(2), func(g *trace.Gen) { g.Load(0, 1, memspace.Base) })
			if err == nil {
				t.Fatal("Run accepted the config")
			}
		})
	}
}

func TestMergedStoreDrainsThroughStoreBuffer(t *testing.T) {
	// A plain store that merges with an in-flight prefetch must not wait
	// for the fill: it drains through the store buffer at now+1, exactly
	// like the DRAM-miss store path. Atomics still wait.
	space := memspace.New()
	arr := space.AllocU32("a", 1024)
	m := mustMachine(t, Default(1), space, trace.NewGen(1))
	m.now = 0
	m.issuePrefetch(0, arr.Addr(0), prefetch.UntrackedMeta)
	m.issuePrefetch(0, arr.Addr(256), prefetch.UntrackedMeta)

	ready, level := m.demandAccess(0, 1, trace.Instr{Kind: trace.Store, Addr: arr.Addr(0), PC: 1})
	if level != cache.LvlMem {
		t.Fatalf("merged store level = %v, want MEM", level)
	}
	if ready != 2 {
		t.Fatalf("merged store ready at %d, want now+1 = 2 (store buffer)", ready)
	}
	if m.stats.LateMerges != 1 {
		t.Fatalf("LateMerges = %d, want 1", m.stats.LateMerges)
	}

	ready, _ = m.demandAccess(0, 1, trace.Instr{Kind: trace.Atomic, Addr: arr.Addr(256), PC: 2})
	if ready <= 2 {
		t.Fatalf("merged atomic ready at %d, must wait for the fill", ready)
	}
}

func TestAbortReturnsPartialStats(t *testing.T) {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<14)
	cfg := Default(1)
	cfg.MaxCycles = 2000
	res, err := Run(cfg, space, trace.NewGen(1), seqWorkload(arr))
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	if res.Cycles == 0 {
		t.Fatal("aborted run reported no cycles")
	}
	if len(res.Stacks) != 1 {
		t.Fatalf("aborted run has %d CPI stacks, want 1", len(res.Stacks))
	}
	if res.Stacks[0].Total() != res.Cycles {
		t.Fatalf("aborted stack attributes %d of %d cycles", res.Stacks[0].Total(), res.Cycles)
	}
	if res.Cache.DemandAccesses == 0 {
		t.Fatal("aborted run reported no cache activity")
	}
}
