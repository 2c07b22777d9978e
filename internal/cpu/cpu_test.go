package cpu

import (
	"testing"
	"testing/quick"

	"prodigy/internal/cache"
	"prodigy/internal/trace"
)

// fakeMem services loads with a fixed latency/level.
type fakeMem struct {
	lat      int64
	level    cache.Level
	accesses int
}

func (m *fakeMem) fn(now int64, in trace.Instr) (int64, cache.Level) {
	m.accesses++
	return now + m.lat, m.level
}

// runCore drives a core to completion and returns the end cycle.
func runCore(t *testing.T, c *Core) int64 {
	t.Helper()
	now := int64(0)
	for i := 0; i < 1_000_000; i++ {
		next := c.Step(now)
		if c.Done() {
			c.FinishAt(now)
			return now
		}
		if c.AtBarrier() {
			c.ReleaseBarrier()
			next = now + 1
		}
		if next <= now {
			t.Fatalf("core did not advance: next=%d now=%d", next, now)
		}
		now = next
	}
	t.Fatal("core never finished")
	return 0
}

func collectReader(instrs func(g *trace.Gen)) *trace.Reader {
	g := trace.NewGen(1)
	g.Attach(instrs)
	return g.Reader(0)
}

func TestPureALUThroughput(t *testing.T) {
	const n = 400
	r := collectReader(func(g *trace.Gen) { g.Ops(0, 1, n) })
	m := &fakeMem{lat: 2, level: cache.LvlL1}
	c := New(DefaultConfig(), r, m.fn, nil)
	end := runCore(t, c)
	// 4-wide: ~n/4 cycles.
	if end > n/4+20 {
		t.Fatalf("ALU-only run took %d cycles, want ~%d", end, n/4)
	}
	if c.Stack.Retired != n {
		t.Fatalf("retired %d, want %d", c.Stack.Retired, n)
	}
	if c.Stack.Cycles[NoStall] < c.Stack.Total()*8/10 {
		t.Fatalf("ALU run should be mostly no-stall: %+v", c.Stack)
	}
}

func TestDRAMLoadsDominateStalls(t *testing.T) {
	const n = 50
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < n; i++ {
			g.Load(0, 1, uint64(i*64))
			// A dependent op after each load models a serial chain; the
			// ROB still overlaps some latency.
			g.Ops(0, 2, 1)
		}
	})
	m := &fakeMem{lat: 120, level: cache.LvlMem}
	c := New(DefaultConfig(), r, m.fn, nil)
	runCore(t, c)
	if m.accesses != n {
		t.Fatalf("memory accesses = %d, want %d", m.accesses, n)
	}
	if c.Stack.Cycles[DRAMStall] == 0 {
		t.Fatal("no DRAM stalls recorded")
	}
	if c.Stack.Cycles[DRAMStall] < c.Stack.Cycles[NoStall] {
		t.Fatalf("DRAM stalls should dominate: %+v", c.Stack)
	}
}

func TestROBOverlapsIndependentLoads(t *testing.T) {
	// 100 independent loads at 120 cycles each: with a 128-entry ROB they
	// almost fully overlap (~120 + n/width cycles), unlike the serial
	// 100*120.
	const n = 100
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < n; i++ {
			g.Load(0, 1, uint64(i*64))
		}
	})
	m := &fakeMem{lat: 120, level: cache.LvlMem}
	c := New(DefaultConfig(), r, m.fn, nil)
	end := runCore(t, c)
	if end > 300 {
		t.Fatalf("independent loads took %d cycles; ROB not overlapping", end)
	}
}

func TestCacheHitsClassifiedAsCacheStall(t *testing.T) {
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < 50; i++ {
			g.Load(0, 1, uint64(i*64))
		}
	})
	m := &fakeMem{lat: 30, level: cache.LvlL3}
	c := New(DefaultConfig(), r, m.fn, nil)
	runCore(t, c)
	if c.Stack.Cycles[DRAMStall] != 0 {
		t.Fatal("L3 hits misclassified as DRAM stalls")
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	// Always-taken branches: after warmup, near-zero mispredicts.
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < 200; i++ {
			g.Branch(0, 9, true, false)
		}
	})
	m := &fakeMem{lat: 2, level: cache.LvlL1}
	c := New(DefaultConfig(), r, m.fn, nil)
	runCore(t, c)
	if c.Branches != 200 {
		t.Fatalf("branches = %d", c.Branches)
	}
	if c.Mispredicts > 4 {
		t.Fatalf("mispredicts = %d on a biased branch", c.Mispredicts)
	}
}

func TestAlternatingBranchesMispredict(t *testing.T) {
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < 200; i++ {
			g.Branch(0, 9, i%2 == 0, false)
		}
	})
	m := &fakeMem{lat: 2, level: cache.LvlL1}
	c := New(DefaultConfig(), r, m.fn, nil)
	runCore(t, c)
	if c.Mispredicts < 50 {
		t.Fatalf("alternating branch mispredicts = %d, want many", c.Mispredicts)
	}
	if c.Stack.Cycles[BranchStall] == 0 {
		t.Fatal("no branch stalls from mispredicts")
	}
}

func TestLoadDependentBranchCouplesToMemory(t *testing.T) {
	// A mispredicted branch that depends on a DRAM load stalls fetch until
	// the load returns + penalty; the same branch with a fast load stalls
	// far less. This is the Fig. 14 branch-stall-reduction mechanism.
	mk := func(lat int64, level cache.Level) int64 {
		r := collectReader(func(g *trace.Gen) {
			for i := 0; i < 50; i++ {
				g.Load(0, 1, uint64(i*64))
				g.Branch(0, 2, i%2 == 0, true) // data-dependent, alternating
			}
		})
		m := &fakeMem{lat: lat, level: level}
		c := New(DefaultConfig(), r, m.fn, nil)
		return runCore(t, c)
	}
	slow := mk(120, cache.LvlMem)
	fast := mk(2, cache.LvlL1)
	if slow < fast*2 {
		t.Fatalf("slow=%d fast=%d: load-dependent branches not coupling", slow, fast)
	}
}

func TestFPLatency(t *testing.T) {
	const n = 100
	r := collectReader(func(g *trace.Gen) { g.FOps(0, 1, n) })
	m := &fakeMem{lat: 2, level: cache.LvlL1}
	c := New(DefaultConfig(), r, m.fn, nil)
	runCore(t, c)
	if c.Stack.Retired != n {
		t.Fatalf("retired %d", c.Stack.Retired)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	const n = 200
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < n; i++ {
			g.Store(0, 1, uint64(i*64))
		}
	})
	m := &fakeMem{lat: 120, level: cache.LvlMem}
	c := New(DefaultConfig(), r, m.fn, nil)
	end := runCore(t, c)
	if end > n/4+20 {
		t.Fatalf("stores stalled the core: %d cycles", end)
	}
	if m.accesses != n {
		t.Fatalf("stores must still access the cache: %d", m.accesses)
	}
}

func TestAtomicSlowerThanLoad(t *testing.T) {
	mk := func(atomic bool) int64 {
		r := collectReader(func(g *trace.Gen) {
			for i := 0; i < 50; i++ {
				if atomic {
					g.Atomic(0, 1, uint64(i*64))
				} else {
					g.Load(0, 1, uint64(i*64))
				}
				g.Branch(0, 2, true, true) // serialize on the result
			}
		})
		m := &fakeMem{lat: 10, level: cache.LvlL2}
		c := New(DefaultConfig(), r, m.fn, nil)
		return runCore(t, c)
	}
	if mk(true) <= mk(false) {
		t.Fatal("atomics should cost more than plain loads")
	}
}

func TestBarrierParksAndReleases(t *testing.T) {
	r := collectReader(func(g *trace.Gen) {
		g.Ops(0, 1, 10)
		g.Barrier()
		g.Ops(0, 1, 10)
	})
	m := &fakeMem{lat: 2, level: cache.LvlL1}
	c := New(DefaultConfig(), r, m.fn, nil)

	now := int64(0)
	sawBarrier := false
	for i := 0; i < 10000 && !c.Done(); i++ {
		next := c.Step(now)
		if c.AtBarrier() {
			sawBarrier = true
			c.ReleaseBarrier()
			next = now + 1
		}
		if next <= now {
			next = now + 1
		}
		now = next
	}
	c.FinishAt(now)
	if !sawBarrier {
		t.Fatal("barrier never reached")
	}
	if !c.Done() {
		t.Fatal("core did not finish after barrier release")
	}
	if c.Stack.Retired != 20 {
		t.Fatalf("retired %d, want 20 (barrier is not an instruction)", c.Stack.Retired)
	}
}

func TestSoftPrefetchCallback(t *testing.T) {
	var got []uint64
	r := collectReader(func(g *trace.Gen) {
		g.SoftPrefetch(0, 1, 0xabc0)
		g.Ops(0, 1, 4)
	})
	m := &fakeMem{lat: 2, level: cache.LvlL1}
	c := New(DefaultConfig(), r, m.fn, func(now int64, addr uint64) { got = append(got, addr) })
	runCore(t, c)
	if len(got) != 1 || got[0] != 0xabc0 {
		t.Fatalf("soft prefetch callback got %v", got)
	}
}

func TestStallAccountingIsComplete(t *testing.T) {
	// Total attributed cycles must equal the end cycle.
	r := collectReader(func(g *trace.Gen) {
		for i := 0; i < 30; i++ {
			g.Load(0, 1, uint64(i*512))
			g.Ops(0, 2, 3)
			g.Branch(0, 3, i%3 == 0, true)
		}
	})
	m := &fakeMem{lat: 60, level: cache.LvlMem}
	c := New(DefaultConfig(), r, m.fn, nil)
	end := runCore(t, c)
	if got := c.Stack.Total(); got != end {
		t.Fatalf("attributed %d cycles, ran %d", got, end)
	}
}

// Property: for arbitrary instruction mixes, the core always advances,
// terminates, retires everything, and attributes every cycle.
func TestQuickCoreProgressAndAccounting(t *testing.T) {
	mk := func(kinds []uint8) bool {
		r := collectReader(func(g *trace.Gen) {
			for i, k := range kinds {
				switch k % 7 {
				case 0:
					g.Ops(0, 1, 1)
				case 1:
					g.FOps(0, 2, 1)
				case 2:
					g.Load(0, 3, uint64(i)*64)
				case 3:
					g.Store(0, 4, uint64(i)*64)
				case 4:
					g.Atomic(0, 5, uint64(i)*64)
				case 5:
					g.Branch(0, 6, i%3 == 0, i%2 == 0)
				case 6:
					g.Barrier()
				}
			}
		})
		m := &fakeMem{lat: 40, level: cache.LvlMem}
		c := New(DefaultConfig(), r, m.fn, nil)
		now := int64(0)
		for steps := 0; steps < 10_000_000 && !c.Done(); steps++ {
			next := c.Step(now)
			if c.AtBarrier() {
				c.ReleaseBarrier()
				next = now + 1
			}
			if !c.Done() && next <= now {
				return false // no progress
			}
			now = next
		}
		if !c.Done() {
			return false
		}
		c.FinishAt(now)
		want := int64(0)
		for _, k := range kinds {
			if k%7 != 6 { // barriers are not instructions
				want++
			}
		}
		return c.Stack.Retired == want && c.Stack.Total() == now
	}
	if err := quicktest(mk); err != nil {
		t.Error(err)
	}
}

func quicktest(f func([]uint8) bool) error {
	return quick.Check(f, &quick.Config{MaxCount: 50})
}
