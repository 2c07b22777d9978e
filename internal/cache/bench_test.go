package cache

import "testing"

// BenchmarkHierarchyAccess drives the demand path with a mix of L1 hits,
// write upgrades, and streaming misses that evict through all three
// levels. The hot-path contract is 0 allocs/op; `make bench-json` fails
// if this regresses above the committed BENCH_*.json baseline.
func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := New(ScaledDefault(1))
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(h.Config().LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		switch i & 3 {
		case 0: // hot line: L1 hit
			h.Access(0, (n%64)*line, false)
		case 1: // write upgrade on the hot set
			h.Access(0, (n%64)*line, true)
		case 2: // streaming read: misses and evictions at every level
			h.Access(0, 1<<24+n*line, false)
		default: // streaming write miss (fill + upgrade + dirty eviction)
			h.Access(0, 2<<24+n*line, true)
		}
	}
}

// BenchmarkFillPrefetch measures the prefetch-fill path (Probe + fill +
// replacement) that the simulator runs once per completed prefetch. Like
// the demand path, it includes the always-on lifecycle attribution
// (per-line tag + per-core Life counters) and must stay at 0 allocs/op.
func BenchmarkFillPrefetch(b *testing.B) {
	h, err := New(ScaledDefault(1))
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(h.Config().LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.FillPrefetch(0, uint64(i)*line, LvlMem)
	}
}
