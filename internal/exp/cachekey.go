package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"prodigy/internal/cache"
	"prodigy/internal/cpu"
	"prodigy/internal/dram"
	"prodigy/internal/graph"
	"prodigy/internal/tlb"
)

// This file resolves a grid cell into its cellSpec: every input that can
// influence the cell's simulated result, defaults resolved (an explicit
// Cores:8 and the zero-value default resolve the same). simulate builds
// the machine only from the spec, the memo key is its canonical JSON and
// the sweep service's durable key (internal/exp/farm, cmd/prodigy-serve)
// that JSON's SHA-256. Cells that would build the same machine share one
// run and one stored result; any change that could alter simulated cycles
// or prefetch statistics changes both keys.

// cellKeySchema versions the key derivation. Bump it whenever the
// simulator's timing model or the spec below changes shape, so stale
// cached results are never replayed as current ones.
const cellKeySchema = 2

// cellSpec is the canonical, JSON-marshalable image of one grid cell's
// full configuration. Only plain structs appear here (no maps, no
// function values), so the marshaled bytes are deterministic.
type cellSpec struct {
	Schema    int            `json:"schema"`
	Algo      string         `json:"algo"`
	Dataset   string         `json:"dataset"`
	Scheme    string         `json:"scheme"`
	Cores     int            `json:"cores"`
	Scale     graph.Scale    `json:"scale"`
	MaxCycles int64          `json:"max_cycles"`
	MSHRs     int            `json:"mshrs"`
	CPU       cpu.Config     `json:"cpu"`
	Cache     cache.Config   `json:"cache"`
	DRAM      dram.Config    `json:"dram"`
	TLB       tlb.Config     `json:"tlb"`
	Prefetch  prefetchConfig `json:"prefetch"`
	// The variant-only inputs no resolved configuration above carries:
	// the hub-sorted dataset (Fig. 18), the prefetch fill level and the
	// pinned DIG trigger parameters (ablations). They are omitted at
	// their defaults, so a default cell's JSON and durable key are those
	// of the schema-2 material that predates them.
	HubSorted bool `json:"hub_sorted,omitempty"`
	FillL2    bool `json:"fill_l2,omitempty"`
	Lookahead int  `json:"lookahead,omitempty"`
	NumSeqs   int  `json:"num_seqs,omitempty"`
}

// spec resolves one cell under variant v. It is the only place the
// harness resolves the core count, the cache hierarchy, the CPU, DRAM and
// TLB configurations and the scheme's prefetcher.
func (h *Harness) spec(algo, dataset string, scheme Scheme, v runVariant) (cellSpec, error) {
	pf, err := h.schemePrefetch(scheme, v)
	if err != nil {
		return cellSpec{}, err
	}
	cores := h.Cfg.Cores
	if v.cores > 0 {
		cores = v.cores
	}
	ccfg := cache.ScaledDefault(cores)
	if h.Cfg.CacheOverride != nil {
		ccfg = *h.Cfg.CacheOverride
		ccfg.Cores = cores
	}
	return cellSpec{
		Schema:    cellKeySchema,
		Algo:      algo,
		Dataset:   dataset,
		Scheme:    string(scheme),
		Cores:     cores,
		Scale:     h.Cfg.Scale,
		MaxCycles: h.Cfg.MaxCycles,
		MSHRs:     h.mshrOverride,
		CPU:       cpu.DefaultConfig(),
		Cache:     ccfg,
		DRAM:      dram.Default(),
		TLB:       tlb.Default(),
		Prefetch:  pf,
		HubSorted: v.hubSorted,
		FillL2:    v.fillL2,
		Lookahead: v.lookahead,
		NumSeqs:   v.numSeqs,
	}, nil
}

// key is the spec's canonical JSON: the memo key of the cell's run and
// the preimage of its durable CellKey. The spec holds only ints, bools
// and strings (TestCellKeyCoversEveryMaterialField enforces it), which
// always marshal.
func (s cellSpec) key() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("exp: cell spec for %s-%s/%s: %v", s.Algo, s.Dataset, s.Scheme, err))
	}
	return string(b)
}

// CellKey returns the canonical persistent-cache key for one
// default-knob grid cell under this harness configuration: the SHA-256
// hex digest of the cell's spec. The sweep service keys its durable
// result store on it, so restarted servers and repeated CI sweeps
// recognize already-simulated cells across processes.
func (h *Harness) CellKey(algo, dataset string, scheme Scheme) (string, error) {
	s, err := h.spec(algo, dataset, scheme, runVariant{})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(s.key()))
	return hex.EncodeToString(sum[:]), nil
}

// Schemes lists every valid prefetching scheme in paper order.
func Schemes() []Scheme {
	return []Scheme{SchemeNone, SchemeStride, SchemeGHB, SchemeIMP,
		SchemeAJ, SchemeDroplet, SchemeSoftware, SchemeProdigy}
}

// ParseScheme validates a scheme name arriving from external input (CLI
// flags, sweep-service requests).
func ParseScheme(s string) (Scheme, error) {
	for _, k := range Schemes() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("exp: unknown scheme %q (want one of %v)", s, Schemes())
}
