// Package cpu models one out-of-order core at the fidelity the paper's
// results require: a 4-wide dispatch window, a 128-entry ROB with in-order
// retirement, a 2-bit branch predictor, and per-cycle stall attribution
// into the Fig. 4/14 CPI-stack categories (no-stall, DRAM, cache, branch,
// dependency, other).
//
// The model is interval-style: loads issue at dispatch and complete when
// the memory system says so; the core stalls when the ROB head is
// incomplete, and each stalled cycle is attributed to the head's class.
// Mispredicted branches stall fetch for a penalty that begins only once
// the branch's inputs are available, which reproduces the paper's
// observation that reducing DRAM stalls also collapses branch stalls
// (load-dependent branches resolve sooner).
package cpu

import (
	"fmt"

	"prodigy/internal/cache"
	"prodigy/internal/obs"
	"prodigy/internal/trace"
)

// StallKind classifies where a cycle went.
type StallKind int

// CPI stack categories (Fig. 4).
const (
	NoStall StallKind = iota
	DRAMStall
	CacheStall
	BranchStall
	DependencyStall
	OtherStall
	numStallKinds
)

// StallKinds lists all categories in display order.
var StallKinds = []StallKind{NoStall, DRAMStall, CacheStall, BranchStall, DependencyStall, OtherStall}

func (k StallKind) String() string {
	switch k {
	case NoStall:
		return "no-stall"
	case DRAMStall:
		return "dram"
	case CacheStall:
		return "cache"
	case BranchStall:
		return "branch"
	case DependencyStall:
		return "dependency"
	case OtherStall:
		return "other"
	}
	return "?"
}

// CPIStack is the per-core cycle accounting.
type CPIStack struct {
	Cycles  [numStallKinds]int64
	Retired int64
}

// Total returns the attributed cycle count.
func (s *CPIStack) Total() int64 {
	var t int64
	for _, c := range s.Cycles {
		t += c
	}
	return t
}

// Add accumulates another stack (for aggregation across cores).
func (s *CPIStack) Add(o CPIStack) {
	for i := range s.Cycles {
		s.Cycles[i] += o.Cycles[i]
	}
	s.Retired += o.Retired
}

// Config sizes the core (Table I).
type Config struct {
	Width             int   // dispatch/retire width
	ROBSize           int   // reorder buffer entries
	FPLat             int64 // floating-point latency
	AtomicExtraLat    int64 // read-modify-write overhead beyond the load
	MispredictPenalty int64 // pipeline refill after a mispredict resolves
	BPBits            int   // log2 branch predictor entries
}

// DefaultConfig returns the Table I core: 4-wide, 128-entry ROB.
func DefaultConfig() Config {
	return Config{Width: 4, ROBSize: 128, FPLat: 4, AtomicExtraLat: 8, MispredictPenalty: 12, BPBits: 10}
}

// Validate reports whether cfg describes a core that can make progress.
// A zero dispatch width or ROB never retires an instruction, so the run
// would step every cycle until its MaxCycles guard; a bad sweep point
// surfaces here as an error from sim.NewMachine instead.
func (cfg Config) Validate() error {
	if cfg.Width <= 0 {
		return fmt.Errorf("cpu: Width = %d, want > 0", cfg.Width)
	}
	if cfg.ROBSize <= 0 {
		return fmt.Errorf("cpu: ROBSize = %d, want > 0", cfg.ROBSize)
	}
	if cfg.BPBits < 0 {
		return fmt.Errorf("cpu: BPBits = %d, want >= 0", cfg.BPBits)
	}
	return nil
}

// MemAccess is the memory-system callback the engine provides: it resolves
// the access (caches, TLB, DRAM) and returns the completion cycle plus the
// service level used for stall classification.
type MemAccess func(now int64, in trace.Instr) (ready int64, level cache.Level)

// SoftPF is the engine callback for software-prefetch instructions.
type SoftPF func(now int64, addr uint64)

type robEntry struct {
	ready int64
	kind  trace.Kind
	level cache.Level
}

// Core is one simulated core.
type Core struct {
	cfg    Config
	reader *trace.Reader
	mem    MemAccess
	softPF SoftPF

	rob   []robEntry
	head  int
	count int

	bp            []uint8 // 2-bit counters
	bpMask        uint32
	fetchStallTil int64
	lastLoadReady int64

	atBarrier bool
	// holdBarrier marks a barrier seen while the ROB was non-empty; the
	// core drains, then parks.
	holdBarrier bool
	// streamDone records that the reader is exhausted (distinct from done:
	// the ROB may still be draining).
	streamDone bool
	done       bool

	lastTime     int64
	pendingClass StallKind

	// obsRec mirrors every stall attribution into the observability layer
	// (nil when disabled; the hook is then a single branch).
	obsRec *obs.Recorder
	obsID  int

	// Stack is the core's CPI accounting.
	Stack CPIStack
	// Branches / Mispredicts count predictor performance.
	Branches, Mispredicts int64
}

// New builds a core reading its instruction stream from reader.
func New(cfg Config, reader *trace.Reader, mem MemAccess, softPF SoftPF) *Core {
	n := 1 << cfg.BPBits
	return &Core{
		cfg:          cfg,
		reader:       reader,
		mem:          mem,
		softPF:       softPF,
		rob:          make([]robEntry, cfg.ROBSize),
		bp:           make([]uint8, n),
		bpMask:       uint32(n - 1),
		pendingClass: OtherStall,
	}
}

// AttachObs routes the core's per-cycle stall attribution to r as core
// coreID (interval CPI-stack slices and timeline spans). Call before the
// first Step; a nil recorder leaves the core uninstrumented.
func (c *Core) AttachObs(r *obs.Recorder, coreID int) {
	c.obsRec, c.obsID = r, coreID
}

// Done reports whether the core has retired its whole stream.
func (c *Core) Done() bool { return c.done }

// AtBarrier reports whether the core is parked at a barrier.
func (c *Core) AtBarrier() bool { return c.atBarrier }

// ReleaseBarrier unparks the core (the engine calls this when every core
// has reached the barrier).
func (c *Core) ReleaseBarrier() { c.atBarrier = false }

const farFuture = int64(1) << 62

// AttributeUpTo charges the cycles since the core's last attribution to
// its pending stall class without advancing any pipeline state. Step and
// FinishAt both run through it; the engine also calls it directly on
// sleeping cores before flushing interval metrics, so a core that the
// wakeup scheduler has not stepped for many cycles still has its stall
// time attributed at every interval boundary. Attributing the same span
// in one large chunk or many small ones is equivalent: the pending class
// cannot change between two steps of the same core.
func (c *Core) AttributeUpTo(now int64) {
	if delta := now - c.lastTime; delta > 0 {
		c.Stack.Cycles[c.pendingClass] += delta
		c.obsRec.StallSpan(c.obsID, int(c.pendingClass), c.lastTime, now)
		c.lastTime = now
	}
}

// Step runs the core at cycle now: it first attributes the cycles since
// its previous step to the stall class chosen then, then retires and
// dispatches. It returns the next cycle at which the core can make
// progress (farFuture when done or parked at a barrier). The returned
// wakeup is exact: stepping the core at any earlier cycle changes no
// pipeline state, so the engine's scheduler skips the core until then.
//
//hot:path
func (c *Core) Step(now int64) int64 {
	c.AttributeUpTo(now)
	if c.done {
		c.pendingClass = OtherStall
		return farFuture
	}
	if c.atBarrier {
		c.pendingClass = OtherStall
		return farFuture
	}

	// Retire.
	retired := 0
	for retired < c.cfg.Width && c.count > 0 && c.rob[c.head].ready <= now {
		// Branchy wrap instead of %: this runs once per retired
		// instruction, and integer division dominated the profile.
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
		c.Stack.Retired++
		retired++
	}

	// Dispatch.
	dispatched := 0
	for !c.holdBarrier && dispatched < c.cfg.Width && c.count < len(c.rob) && now >= c.fetchStallTil {
		if !c.reader.Next() {
			c.streamDone = true
			if c.count == 0 {
				c.done = true
				c.pendingClass = OtherStall
				return farFuture
			}
			break
		}
		in := c.reader.In
		if in.Kind == trace.Barrier {
			// The barrier takes effect once the ROB drains.
			if c.count == 0 {
				c.atBarrier = true
				c.pendingClass = OtherStall
				return farFuture
			}
			// Re-deliver after draining: park the barrier by pushing it
			// back via a one-instruction hold.
			c.holdBarrier = true
			break
		}
		c.dispatch(now, in)
		dispatched++
	}
	if c.holdBarrier && c.count == 0 {
		c.holdBarrier = false
		c.atBarrier = true
		c.pendingClass = OtherStall
		return farFuture
	}

	// Classify the upcoming cycles and pick the revisit time.
	if retired > 0 {
		c.pendingClass = NoStall
		return now + 1
	}
	if c.count > 0 {
		head := &c.rob[c.head]
		c.pendingClass = classify(head)
		next := head.ready
		if dispatched > 0 {
			// More dispatch work is possible next cycle.
			if n := now + 1; n < next {
				return n
			}
		} else if !c.streamDone && !c.holdBarrier && c.count < len(c.rob) &&
			c.fetchStallTil > now && c.fetchStallTil < next {
			// Fetch unstalls before the head completes; dispatch then.
			next = c.fetchStallTil
		}
		if next <= now {
			next = now + 1
		}
		return next
	}
	// Empty ROB: either fetch-stalled (mispredict refill) or just started.
	if now < c.fetchStallTil {
		c.pendingClass = BranchStall
		return c.fetchStallTil
	}
	c.pendingClass = OtherStall
	return now + 1
}

//hot:inline
func classify(e *robEntry) StallKind {
	switch e.kind {
	case trace.Load, trace.Atomic:
		if e.level == cache.LvlMem {
			return DRAMStall
		}
		return CacheStall
	case trace.Branch:
		return BranchStall
	default:
		return DependencyStall
	}
}

func (c *Core) dispatch(now int64, in trace.Instr) {
	//hot:noescape
	e := robEntry{kind: in.Kind, ready: now + 1}
	switch in.Kind {
	case trace.Int:
		// single cycle
	case trace.FP:
		e.ready = now + c.cfg.FPLat
	case trace.Load:
		ready, level := c.mem(now, in)
		e.ready, e.level = ready, level
		if ready > c.lastLoadReady {
			c.lastLoadReady = ready
		}
	case trace.Atomic:
		ready, level := c.mem(now, in)
		e.ready, e.level = ready+c.cfg.AtomicExtraLat, level
		if e.ready > c.lastLoadReady {
			c.lastLoadReady = e.ready
		}
	case trace.Store:
		// Stores drain through the store buffer; the cache access happens
		// for state/stats but the core does not wait on it.
		c.mem(now, in)
	case trace.Branch:
		c.Branches++
		taken := in.Taken()
		pred := c.predict(in.PC, taken)
		resolve := now + 1
		if in.LoadDep() && c.lastLoadReady > resolve {
			resolve = c.lastLoadReady
		}
		e.ready = resolve
		if pred != taken {
			c.Mispredicts++
			// The refill penalty grows with the branch's resolution wait: a
			// mispredict that sat behind a DRAM load squashed a full window
			// of wrong-path work (Srinivasan & Lebeck). This is the term
			// prefetching collapses in Fig. 14's branch segment.
			c.fetchStallTil = resolve + c.cfg.MispredictPenalty + (resolve-now)/4
		}
	case trace.SoftPrefetch:
		if c.softPF != nil {
			c.softPF(now, in.Addr)
		}
	}
	i := c.head + c.count
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	c.rob[i] = e
	c.count++
}

// predict consults and updates the 2-bit counter for pc.
//
//hot:inline
func (c *Core) predict(pc uint32, taken bool) bool {
	ctr := &c.bp[pc&c.bpMask]
	pred := *ctr >= 2
	if taken && *ctr < 3 {
		*ctr++
	}
	if !taken && *ctr > 0 {
		*ctr--
	}
	return pred
}

// FinishAt attributes the tail cycles at the end of simulation.
func (c *Core) FinishAt(end int64) {
	c.AttributeUpTo(end)
}
