package exp

import (
	"reflect"
	"testing"

	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/graph"
	"prodigy/internal/prefetch"
)

func mustKey(t *testing.T, h *Harness, algo, dataset string, scheme Scheme) string {
	t.Helper()
	k, err := h.CellKey(algo, dataset, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCellKeyTracksHarnessKnobs changes one harness input at a time and
// checks which cells' keys move: every input that changes a cell's
// machine must change its key, and restating a default must not.
func TestCellKeyTracksHarnessKnobs(t *testing.T) {
	small := cache.ScaledDefault(8)
	small.L3Size /= 2
	cases := []struct {
		name   string
		mod    func(h *Harness)
		scheme Scheme
		moves  bool
	}{
		{"cores", func(h *Harness) { h.Cfg.Cores = 4 }, SchemeNone, true},
		{"scale", func(h *Harness) { h.Cfg.Scale = graph.ScaleSmall }, SchemeNone, true},
		{"max cycles", func(h *Harness) { h.Cfg.MaxCycles = 1 << 20 }, SchemeNone, true},
		{"cache override", func(h *Harness) { h.Cfg.CacheOverride = &small }, SchemeNone, true},
		{"mshrs", func(h *Harness) { h.mshrOverride = 4 }, SchemeNone, true},
		{"pfhr/prodigy", func(h *Harness) { h.Cfg.PFHREntries = 8 }, SchemeProdigy, true},
		{"pfhr/aj", func(h *Harness) { h.Cfg.PFHREntries = 8 }, SchemeAJ, true},
		{"pfhr/stride", func(h *Harness) { h.Cfg.PFHREntries = 8 }, SchemeStride, false},
		{"explicit default pfhr", func(h *Harness) { h.Cfg.PFHREntries = 16 }, SchemeProdigy, false},
		{"explicit default cores", func(h *Harness) { h.Cfg.Cores = 8 }, SchemeProdigy, false},
		{"parallelism", func(h *Harness) { h.Cfg.Parallelism = 1 }, SchemeProdigy, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := mustKey(t, New(Config{}), "bfs", "lj", c.scheme)
			h := New(Config{})
			c.mod(h)
			if moved := mustKey(t, h, "bfs", "lj", c.scheme) != base; moved != c.moves {
				t.Fatalf("key moved = %v, want %v", moved, c.moves)
			}
		})
	}

	h := New(Config{})
	seen := map[string]string{}
	for _, s := range Schemes() {
		for _, cell := range [][2]string{{"bfs", "lj"}, {"bfs", "po"}, {"pr", "lj"}} {
			k := mustKey(t, h, cell[0], cell[1], s)
			name := cell[0] + "-" + cell[1] + "/" + string(s)
			if prev, dup := seen[k]; dup {
				t.Fatalf("%s and %s share a key", prev, name)
			}
			seen[k] = name
		}
	}
	if _, err := h.CellKey("bfs", "lj", "bogus"); err == nil {
		t.Fatal("CellKey accepted an unknown scheme")
	}
}

// TestCellKeyResolvesPrefetcherConfig pins that a cell's key carries the
// resolved configuration its prefetcher is built from.
func TestCellKeyResolvesPrefetcherConfig(t *testing.T) {
	h := New(Config{})
	cases := []struct {
		scheme Scheme
		want   prefetchConfig
	}{
		{SchemeNone, prefetchConfig{}},
		{SchemeSoftware, prefetchConfig{}},
		{SchemeStride, prefetchConfig{Stride: &prefetch.StrideConfig{TableSize: 64, Degree: 4}}},
		{SchemeGHB, prefetchConfig{GHB: &prefetch.GHBConfig{HistorySize: 256, Degree: 4}}},
		{SchemeIMP, prefetchConfig{IMP: &prefetch.IMPConfig{Distance: 16, TableSize: 32}}},
		{SchemeDroplet, prefetchConfig{Droplet: &prefetch.DropletConfig{StreamLines: 4, WindowLines: 32}}},
		{SchemeAJ, prefetchConfig{AJ: &core.Config{PFHREntries: 16, MaxRangedLines: 64, SingleSequence: true}}},
		{SchemeProdigy, prefetchConfig{Prodigy: &core.Config{PFHREntries: 16, MaxRangedLines: 64}}},
	}
	for _, c := range cases {
		m, err := h.spec("bfs", "lj", c.scheme, runVariant{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Prefetch, c.want) {
			t.Errorf("%s: prefetch material = %+v, want %+v", c.scheme, m.Prefetch, c.want)
		}
	}
}

// fullSpec returns a cell spec with every prefetcher configuration set
// (freshly allocated on each call), so that it carries every field the
// key can hold.
func fullSpec(t *testing.T) cellSpec {
	t.Helper()
	h := New(Config{})
	m, err := h.spec("bfs", "lj", SchemeProdigy, runVariant{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		pc, err := h.schemePrefetch(s, runVariant{})
		if err != nil {
			t.Fatal(err)
		}
		dst, src := reflect.ValueOf(&m.Prefetch).Elem(), reflect.ValueOf(pc)
		for i := 0; i < src.NumField(); i++ {
			if !src.Field(i).IsNil() {
				dst.Field(i).Set(src.Field(i))
			}
		}
	}
	return m
}

// keyLeaves returns every scalar field reachable from v, following
// pointers and nested structs.
func keyLeaves(t *testing.T, v reflect.Value, path string) map[string]reflect.Value {
	t.Helper()
	out := map[string]reflect.Value{}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s: nil pointer in full cell spec", path)
		}
		return keyLeaves(t, v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			for p, l := range keyLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name) {
				out[p] = l
			}
		}
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Bool, reflect.String:
		out[path] = v
	default:
		t.Fatalf("%s: cell spec field of kind %s: teach keyLeaves to change it", path, v.Kind())
	}
	return out
}

// TestCellKeyCoversEveryMaterialField changes each scalar field of the
// cell spec in turn — machine geometry, latencies, every prefetcher knob
// (Prodigy's MaxRangedLines, DisableRanged and SingleSequence, the A&J
// form, the baseline prefetchers' tables), the variant-only inputs — and
// checks the key (the memo key, and so the durable digest) moves.
func TestCellKeyCoversEveryMaterialField(t *testing.T) {
	m0 := fullSpec(t)
	base := m0.key()
	paths := keyLeaves(t, reflect.ValueOf(&m0).Elem(), "key")
	for _, want := range []string{"key.Prefetch.Prodigy.MaxRangedLines", "key.Prefetch.Prodigy.DisableRanged",
		"key.Prefetch.Prodigy.SingleSequence", "key.Prefetch.AJ.PFHREntries", "key.Prefetch.Stride.Degree",
		"key.Prefetch.GHB.HistorySize", "key.Prefetch.IMP.Distance", "key.Prefetch.Droplet.WindowLines",
		"key.HubSorted", "key.FillL2", "key.Lookahead", "key.NumSeqs"} {
		if _, ok := paths[want]; !ok {
			t.Fatalf("cell spec lacks %s", want)
		}
	}
	for path := range paths {
		m := fullSpec(t)
		leaf := keyLeaves(t, reflect.ValueOf(&m).Elem(), "key")[path]
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(!leaf.Bool())
		case reflect.String:
			leaf.SetString(leaf.String() + "x")
		case reflect.Uint, reflect.Uint64:
			leaf.SetUint(leaf.Uint() + 1)
		default:
			leaf.SetInt(leaf.Int() + 1)
		}
		if m.key() == base {
			t.Errorf("changing %s left the key unchanged", path)
		}
	}
}

// TestCellKeyGolden pins the digests of a few default-knob cells. A
// durable store written by an earlier build replays only while these hold;
// a deliberate change to the cell spec must bump cellKeySchema and
// update them.
func TestCellKeyGolden(t *testing.T) {
	cases := []struct {
		cfg                   Config
		algo, dataset, scheme string
		want                  string
	}{
		{Config{}, "bfs", "lj", "none", "3a166a194fa02de8e90d16b746287d50583f400325f59482a1402443ea76fcd4"},
		{Config{}, "bfs", "lj", "prodigy", "cd7b5385eea0be8ed365da46b802107672a25acf389e964a179bb44d584ebcc1"},
		{Config{}, "pr", "lj", "aj", "3bd3b7708dee3523653d928121f16101f8eb9cc2bb70c8e3b5ead49dfeb7af6b"},
		{Quick(), "bfs", "po", "prodigy", "c025ed3d8b75a45e5082058dc692a3edf994a4c26d5ec680b49d1a7f2a0756c7"},
		{Quick(), "spmv", "", "droplet", "e477a37674a9f70c0091271d3bced236e27ad7022fa15996cc1b71a1a6192ea6"},
	}
	for _, c := range cases {
		if got := mustKey(t, New(c.cfg), c.algo, c.dataset, Scheme(c.scheme)); got != c.want {
			t.Errorf("%s-%s/%s: key %s, want %s", c.algo, c.dataset, c.scheme, got, c.want)
		}
	}
}
