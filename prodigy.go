// Package prodigy is the public API of the Prodigy reproduction (Talati
// et al., HPCA 2021): a DIG-programmed hardware prefetcher, the multi-core
// timing simulator it is evaluated on, the paper's nine irregular
// workloads, baseline prefetchers, and the experiment harness that
// regenerates every table and figure.
//
// Three entry points cover most uses:
//
//   - Simulate one workload under a prefetching scheme:
//
//     run, err := prodigy.Simulate("bfs", "lj", prodigy.SchemeProdigy, prodigy.QuickConfig())
//
//   - Regenerate a paper experiment:
//
//     h := prodigy.NewHarness(prodigy.DefaultConfig())
//     fig14, err := h.Fig14()
//
//   - Program a Prodigy prefetcher for your own workload: allocate arrays
//     in a Space, register the DIG with a Builder (the registerNode /
//     registerTravEdge / registerTrigEdge API of the paper's Fig. 6),
//     emit an instruction stream, and run it on a Machine — see
//     examples/quickstart.
package prodigy

import (
	"prodigy/internal/cache"
	"prodigy/internal/core"
	"prodigy/internal/cpu"
	"prodigy/internal/dig"
	"prodigy/internal/dram"
	"prodigy/internal/exp"
	"prodigy/internal/graph"
	"prodigy/internal/memspace"
	"prodigy/internal/prefetch"
	"prodigy/internal/sim"
	"prodigy/internal/tlb"
	"prodigy/internal/trace"
	"prodigy/internal/workloads"
)

// DIG construction (Section III).
type (
	// DIG is the Data Indirection Graph.
	DIG = dig.DIG
	// DIGBuilder exposes the registerNode/registerTravEdge/registerTrigEdge
	// runtime API.
	DIGBuilder = dig.Builder
	// TriggerConfig carries a trigger edge's sequence parameters.
	TriggerConfig = dig.TriggerConfig
	// EdgeType is a DIG edge weight (w0/w1/w2).
	EdgeType = dig.EdgeType
)

// DIG edge types.
const (
	SingleValued = dig.SingleValued // w0
	Ranged       = dig.Ranged       // w1
	Trigger      = dig.Trigger      // w2
)

// NewDIGBuilder returns an empty DIG builder.
func NewDIGBuilder() *DIGBuilder { return dig.NewBuilder() }

// Address space and instruction streams.
type (
	// Space is a simulated virtual address space holding typed arrays.
	Space = memspace.Space
	// TraceGen produces per-core instruction streams.
	TraceGen = trace.Gen
)

// NewSpace returns an empty address space.
func NewSpace() *Space { return memspace.New() }

// NewTraceGen builds a generator for cores instruction streams. RunMachine
// pulls the producer's instructions from it one barrier-delimited epoch at
// a time.
func NewTraceGen(cores int) *TraceGen { return trace.NewGen(cores) }

// The Prodigy prefetcher and its baselines.
type (
	// ProdigyConfig sizes the prefetcher hardware (PFHR file and knobs).
	ProdigyConfig = core.Config
	// PrefetcherFactory builds one prefetcher per core.
	PrefetcherFactory = prefetch.Factory
)

// NewProdigy returns a factory that programs each core's Prodigy instance
// with the DIG.
func NewProdigy(d *DIG, cfg ProdigyConfig) PrefetcherFactory { return core.New(d, cfg) }

// DefaultProdigyConfig is the paper's design point (16 PFHRs).
func DefaultProdigyConfig() ProdigyConfig { return core.DefaultConfig() }

// Baseline prefetcher factories (Section VI-C comparisons).
var (
	// NoPrefetcher is the non-prefetching baseline.
	NoPrefetcher = prefetch.None
)

// NewStride returns the per-PC stride baseline.
func NewStride() PrefetcherFactory { return prefetch.Stride(prefetch.DefaultStrideConfig()) }

// NewGHB returns the GHB G/DC baseline.
func NewGHB() PrefetcherFactory { return prefetch.GHB(prefetch.DefaultGHBConfig()) }

// NewIMP returns the indirect memory prefetcher baseline.
func NewIMP() PrefetcherFactory { return prefetch.IMP(prefetch.DefaultIMPConfig()) }

// NewDroplet returns the DROPLET baseline programmed with a DIG.
func NewDroplet(d *DIG) PrefetcherFactory {
	return prefetch.Droplet(d, prefetch.DefaultDropletConfig())
}

// Simulation.
type (
	// MachineConfig assembles a simulated machine.
	MachineConfig = sim.Config
	// SimResult is one run's outcome (cycles, CPI stacks, cache stats).
	SimResult = sim.Result
	// StallKind indexes the CPI stack categories.
	StallKind = cpu.StallKind
)

// CPI stack categories.
const (
	NoStall         = cpu.NoStall
	DRAMStall       = cpu.DRAMStall
	CacheStall      = cpu.CacheStall
	BranchStall     = cpu.BranchStall
	DependencyStall = cpu.DependencyStall
	OtherStall      = cpu.OtherStall
)

// DefaultMachine returns the Table I machine (scaled caches) without a
// prefetcher.
func DefaultMachine(cores int) MachineConfig { return sim.Default(cores) }

// RunMachine simulates producer's instruction streams on the machine.
func RunMachine(cfg MachineConfig, space *Space, gen *TraceGen, producer func(*TraceGen)) (SimResult, error) {
	return sim.Run(cfg, space, gen, producer)
}

// Workloads and experiments.
type (
	// Workload is one paper benchmark instance.
	Workload = workloads.Workload
	// WorkloadOptions tunes workload construction.
	WorkloadOptions = workloads.Options
	// Harness memoizes (workload × scheme) simulations and renders the
	// paper's tables and figures.
	Harness = exp.Harness
	// HarnessConfig parameterizes a harness.
	HarnessConfig = exp.Config
	// Scheme names a prefetching configuration.
	Scheme = exp.Scheme
	// Run is one harness simulation with its workload context.
	Run = exp.Run
)

// Prefetching schemes.
const (
	SchemeNone     = exp.SchemeNone
	SchemeStride   = exp.SchemeStride
	SchemeGHB      = exp.SchemeGHB
	SchemeIMP      = exp.SchemeIMP
	SchemeAJ       = exp.SchemeAJ
	SchemeDroplet  = exp.SchemeDroplet
	SchemeSoftware = exp.SchemeSoftware
	SchemeProdigy  = exp.SchemeProdigy
)

// Dataset scales.
const (
	ScaleTiny  = graph.ScaleTiny
	ScaleSmall = graph.ScaleSmall
)

// BuildWorkload constructs one of the nine kernels (bc bfs cc pr sssp
// spmv symgs cg is); dataset (po lj or sk wb) applies to graph kernels.
func BuildWorkload(algo, dataset string, cores int, opts WorkloadOptions) (*Workload, error) {
	return workloads.Build(algo, dataset, cores, opts)
}

// NewHarness builds an experiment harness.
func NewHarness(cfg HarnessConfig) *Harness { return exp.New(cfg) }

// DefaultConfig is the paper-scale harness configuration (8 cores, small
// datasets, all five graphs).
func DefaultConfig() HarnessConfig { return exp.Default() }

// QuickConfig is a fast smoke-test configuration (tiny datasets, 2 cores,
// verification on).
func QuickConfig() HarnessConfig { return exp.Quick() }

// Simulate runs one (algorithm, dataset, scheme) cell and returns the run.
func Simulate(algo, dataset string, scheme Scheme, cfg HarnessConfig) (*Run, error) {
	if !workloads.IsGraphAlgo(algo) {
		dataset = ""
	}
	return exp.New(cfg).RunOne(algo, dataset, scheme)
}

// Hardware-model escape hatches for custom machines.
type (
	// CacheConfig sizes the three-level hierarchy.
	CacheConfig = cache.Config
	// DRAMConfig parameterizes the memory controller.
	DRAMConfig = dram.Config
	// TLBConfig parameterizes the per-core TLBs.
	TLBConfig = tlb.Config
	// CPUConfig sizes the out-of-order cores.
	CPUConfig = cpu.Config
)
