// Package digdrift is a lint fixture: a miniature workload kernel whose
// hand-written DIG registration deliberately disagrees with its loops —
// the traversal edge points the wrong way and the trigger sits on the
// wrong node.
package digdrift

import (
	"prodigy/internal/dig"
	"prodigy/internal/memspace"
	"prodigy/internal/trace"
)

// buildGather is a one-level gather: data[idx[i]].
func buildGather(n int) (*dig.DIG, func(*trace.Gen)) {
	sp := memspace.New()
	idx := sp.AllocU32("idx", n)
	data := sp.AllocF32("data", n)

	b := dig.NewBuilder()
	b.RegisterNode("idx", idx.BaseAddr, uint64(n), 4, 0)
	b.RegisterNode("data", data.BaseAddr, uint64(n), 4, 1)
	b.RegisterTravEdge(data.BaseAddr, idx.BaseAddr, dig.SingleValued) // want dig-drift
	b.RegisterTrigEdge(data.BaseAddr, dig.TriggerConfig{})            // want dig-drift

	run := func(tg *trace.Gen) { // want dig-drift dig-drift
		for i := 0; i < n; i++ {
			tg.Load(0, 1, idx.Addr(i))
			k := idx.Data[i]
			tg.Load(0, 2, data.Addr(int(k)))
		}
		tg.Barrier()
	}
	d, _ := b.Build()
	return d, run
}
