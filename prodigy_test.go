package prodigy

import (
	"testing"
	"testing/quick"
)

// TestPublicAPIQuickstart exercises the documented entry points end to
// end: build a DIG by hand, run a custom kernel on the default machine,
// and check Prodigy beats the non-prefetching run.
func TestPublicAPIQuickstart(t *testing.T) {
	const n = 1 << 13
	run := func(withProdigy bool) SimResult {
		space := NewSpace()
		idx := space.AllocU32("idx", n)
		data := space.AllocU32("data", n)
		r := uint64(7)
		for i := range idx.Data {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			idx.Data[i] = uint32(r % n)
		}
		b := NewDIGBuilder()
		b.RegisterNode("idx", idx.BaseAddr, n, 4, 0)
		b.RegisterNode("data", data.BaseAddr, n, 4, 1)
		b.RegisterTravEdge(idx.BaseAddr, data.BaseAddr, SingleValued)
		b.RegisterTrigEdge(idx.BaseAddr, TriggerConfig{})
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		machine := DefaultMachine(1)
		if withProdigy {
			machine.Prefetcher = NewProdigy(d, DefaultProdigyConfig())
		}
		res, err := RunMachine(machine, space, NewTraceGen(1), func(g *TraceGen) {
			for i := 0; i < n; i++ {
				v := idx.Data[i]
				g.Load(0, 1, idx.Addr(i))
				g.Load(0, 2, data.Addr(int(v)))
				g.Branch(0, 3, v%2 == 0, true)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	pro := run(true)
	if pro.Cycles >= base.Cycles {
		t.Fatalf("Prodigy did not help: %d vs %d cycles", pro.Cycles, base.Cycles)
	}
	if pro.Agg.Cycles[DRAMStall] >= base.Agg.Cycles[DRAMStall] {
		t.Fatal("DRAM stalls did not shrink")
	}
}

// TestSimulateFacade runs one harness cell through the Simulate shortcut.
func TestSimulateFacade(t *testing.T) {
	run, err := Simulate("bfs", "po", SchemeProdigy, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run.Res.Cycles == 0 || run.Label != "bfs-po" {
		t.Fatalf("unexpected run: %+v", run.Label)
	}
	// Non-graph kernels ignore the dataset argument.
	run2, err := Simulate("is", "lj", SchemeNone, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run2.Label != "is" {
		t.Fatalf("label = %q", run2.Label)
	}
}

// TestBuildWorkloadFacade builds and verifies a workload via the facade.
func TestBuildWorkloadFacade(t *testing.T) {
	w, err := BuildWorkload("cc", "po", 2, WorkloadOptions{Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMachine(DefaultMachine(2), w.Space, NewTraceGen(2), w.Run); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Property: a DIG built from any set of disjoint arrays with a valid
// trigger always reports storage within the 16-entry hardware budget
// model, and its look-ahead is positive.
func TestQuickDIGBudget(t *testing.T) {
	f := func(sizes []uint8) bool {
		b := NewDIGBuilder()
		base := uint64(0x10000)
		count := 0
		for i, sz := range sizes {
			if count >= 14 {
				break
			}
			n := uint64(sz) + 1
			b.RegisterNode("arr", base, n, 4, i)
			base += (n*4/4096 + 2) * 4096
			count++
		}
		if count == 0 {
			return true
		}
		b.RegisterTrigEdge(0x10000, TriggerConfig{})
		d, err := b.Build()
		if err != nil {
			return false
		}
		return d.StorageBits(16) <= 16*300 && d.Lookahead(d.TriggerNodes()[0]) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
