// Package trace defines the instruction stream that connects workload
// generators to the timing simulator.
//
// Workloads execute functionally (on real arrays in a memspace.Space) and
// emit one Instr per dynamic instruction. The workload kernel runs as a
// coroutine (iter.Pull) that the simulator pulls one synchronization epoch
// at a time: when a core's Reader runs dry, it resumes the kernel, which
// stages a whole epoch for every core and parks again at its next Barrier.
// Memory stays proportional to one epoch rather than the whole trace, and
// because exactly one side runs at any instant, plain workload stores and
// functional simulator reads of the same arrays are race-free and
// deterministic: the prefetchers always see memory as of the end of the
// epoch being consumed. A simulator that stops early (error, interrupt)
// unwinds the kernel at the Barrier where it is parked, so an abandoned
// run costs no further kernel work.
package trace

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Kind classifies a dynamic instruction.
type Kind uint8

// Instruction kinds.
const (
	// Int is a single-cycle integer ALU operation.
	Int Kind = iota
	// FP is a multi-cycle floating-point operation.
	FP
	// Load is a data load; Addr is the virtual byte address.
	Load
	// Store is a data store; Addr is the virtual byte address.
	Store
	// Atomic is a read-modify-write (e.g. compare-and-swap).
	Atomic
	// Branch is a conditional branch; TakenFlag records its outcome.
	Branch
	// SoftPrefetch is a software prefetch instruction (non-faulting).
	SoftPrefetch
	// Barrier is a synchronization point across all cores.
	Barrier
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case FP:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	case Branch:
		return "branch"
	case SoftPrefetch:
		return "softpf"
	case Barrier:
		return "barrier"
	}
	return "?"
}

// Instr flag bits.
const (
	// TakenFlag marks a taken branch.
	TakenFlag uint8 = 1 << iota
	// LoadDepFlag marks a branch whose condition depends on a recent load
	// (the data-dependent branches of Section II).
	LoadDepFlag
)

// Instr is one dynamic instruction. It is kept to 16 bytes so that large
// epochs stay cheap to buffer.
type Instr struct {
	// Addr is the virtual byte address for memory kinds, 0 otherwise.
	Addr uint64
	// PC identifies the static instruction site (used by the branch
	// predictor and PC-indexed prefetchers).
	PC uint32
	// Kind is the instruction class.
	Kind Kind
	// Flags holds TakenFlag / LoadDepFlag bits.
	Flags uint8
	_     [2]byte
}

// Taken reports whether a branch instruction was taken.
func (in Instr) Taken() bool { return in.Flags&TakenFlag != 0 }

// LoadDep reports whether a branch depends on a recent load.
func (in Instr) LoadDep() bool { return in.Flags&LoadDepFlag != 0 }

// chunkSize is the number of instructions published to a reader at once.
const chunkSize = 4096

// Reader is the simulator-side cursor over one core's stream. Next
// deposits each instruction in In rather than returning it; see Next.
type Reader struct {
	cur []Instr
	pos int
	// n caches len(cur): the cached field keeps Next's fast path inside
	// the compiler's inlining budget (len() on the slice costs one more
	// node than the budget allows).
	n int
	// In holds the instruction the most recent successful Next produced.
	In Instr
	// queue holds the chunks published to this core, oldest first.
	queue [][]Instr
	gen   *Gen
}

// Next advances to the next instruction, depositing it in r.In, and
// reports whether one was available (false means the stream is
// exhausted). When the published chunks run out it resumes the producer
// for the next epoch.
//
// The deposit-in-field shape is deliberate: every value-returning
// variant of this function costs more than the compiler's inlining
// budget of 80 (the (Instr, bool) return alone pushed it to 92), and the
// per-instruction call from the core's dispatch loop is hot enough for
// the call overhead to show up in the profile. This shape sits at
// exactly cost 80; the //hot:inline contract below makes `prodigy-lint
// -escape` fail if a future edit pushes it back over. Chunk refills go
// through nextSlow.
//
//hot:path
//hot:inline
func (r *Reader) Next() bool {
	if r.pos < r.n {
		r.In = r.cur[r.pos]
		r.pos++
		return true
	}
	return r.nextSlow()
}

// nextSlow recycles the exhausted chunk, takes the next one from the
// queue — pulling the next epoch from the producer when the queue is
// empty — and deposits its first instruction in r.In. It reports false
// once the producer has finished and the queue is drained.
func (r *Reader) nextSlow() bool {
	if cap(r.cur) > 0 {
		//lint:allow hotpath-alloc chunk recycling: the free list is bounded by the chunks in flight per epoch, so growth stops after the first epoch
		r.gen.free = append(r.gen.free, r.cur[:0])
		r.cur, r.n = nil, 0
	}
	for len(r.queue) == 0 {
		if !r.gen.resume() {
			return false
		}
	}
	r.cur = r.queue[0]
	r.queue[0] = nil
	r.queue = r.queue[1:]
	r.n = len(r.cur)
	r.In = r.cur[0]
	r.pos = 1
	return true
}

// Gen produces per-core instruction streams. Its emit methods are called
// by one producer function, which Attach runs as a coroutine of the
// Readers: it runs only while a Reader is waiting for the next epoch, and
// every chunk it emits is published straight to that core's queue.
type Gen struct {
	readers []*Reader
	bufs    [][]Instr // per-core chunk being filled
	// free recycles fully consumed chunk buffers back to the producer:
	// steady-state emission reuses a handful of chunkSize-capacity arrays
	// instead of growing fresh ones each epoch.
	free [][]Instr
	// yield parks the producer at a Barrier; it reports false once the
	// consumer has stopped the producer.
	yield func(struct{}) bool
	// next resumes the producer until its next Barrier or its return. It
	// is nil when no producer is attached or the producer has finished.
	next func() (struct{}, bool)
}

// unwind is the panic value Barrier raises to abandon a stopped producer.
type unwind struct{}

// NewGen creates a generator for ncores cores.
func NewGen(ncores int) *Gen {
	g := &Gen{
		readers: make([]*Reader, ncores),
		bufs:    make([][]Instr, ncores),
	}
	for i := range g.readers {
		g.readers[i] = &Reader{gen: g}
	}
	return g
}

// Cores returns the number of cores the generator feeds.
func (g *Gen) Cores() int { return len(g.readers) }

// Reader returns the consumer cursor for a core.
func (g *Gen) Reader(core int) *Reader { return g.readers[core] }

// Attach makes fn the generator's producer. fn does not start yet: the
// Readers resume it on demand, and it runs one epoch at a time, parking
// at each Barrier until a Reader runs dry again. The returned stop
// function ends the producer — unwinding it at the Barrier where it is
// parked, if it has not returned — and reports a panic in fn as an
// error, so one crashing workload kernel surfaces as a failed run instead
// of killing the whole process. stop may be called more than once.
func (g *Gen) Attach(fn func(*Gen)) (stop func() error) {
	var err error
	next, stopPull := iter.Pull(func(yield func(struct{}) bool) {
		g.yield = yield
		defer func() {
			if p := recover(); p != nil && p != any(unwind{}) {
				err = fmt.Errorf("trace: workload producer panicked: %v\n%s", p, debug.Stack())
			}
		}()
		fn(g)
		for c := range g.bufs {
			g.flush(c)
		}
	})
	g.next = next
	return func() error {
		stopPull()
		g.next = nil
		return err
	}
}

// resume runs the producer until its next Barrier or its return,
// publishing what it emits. It reports false when there is no producer
// left to run.
func (g *Gen) resume() bool {
	if g.next == nil {
		return false
	}
	if _, more := g.next(); !more {
		g.next = nil
	}
	return true
}

func (g *Gen) emit(core int, in Instr) {
	b := g.bufs[core]
	if b == nil {
		if n := len(g.free); n > 0 {
			b = g.free[n-1]
			g.free[n-1] = nil
			g.free = g.free[:n-1]
		} else {
			b = make([]Instr, 0, chunkSize)
		}
	}
	b = append(b, in)
	g.bufs[core] = b
	if len(b) >= chunkSize {
		g.flush(core)
	}
}

// flush publishes core's partly filled chunk.
func (g *Gen) flush(core int) {
	if b := g.bufs[core]; len(b) > 0 {
		r := g.readers[core]
		r.queue = append(r.queue, b)
		g.bufs[core] = nil
	}
}

// Load emits a load of the element at addr.
func (g *Gen) Load(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: Load, PC: pc, Addr: addr})
}

// Store emits a store to addr.
func (g *Gen) Store(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: Store, PC: pc, Addr: addr})
}

// Atomic emits a read-modify-write to addr.
func (g *Gen) Atomic(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: Atomic, PC: pc, Addr: addr})
}

// Branch emits a conditional branch with its outcome.
func (g *Gen) Branch(core int, pc uint32, taken, loadDep bool) {
	var f uint8
	if taken {
		f |= TakenFlag
	}
	if loadDep {
		f |= LoadDepFlag
	}
	g.emit(core, Instr{Kind: Branch, PC: pc, Flags: f})
}

// Ops emits n single-cycle integer ALU operations.
func (g *Gen) Ops(core int, pc uint32, n int) {
	for i := 0; i < n; i++ {
		g.emit(core, Instr{Kind: Int, PC: pc})
	}
}

// FOps emits n floating-point operations.
func (g *Gen) FOps(core int, pc uint32, n int) {
	for i := 0; i < n; i++ {
		g.emit(core, Instr{Kind: FP, PC: pc})
	}
}

// SoftPrefetch emits a software prefetch of addr.
func (g *Gen) SoftPrefetch(core int, pc uint32, addr uint64) {
	g.emit(core, Instr{Kind: SoftPrefetch, PC: pc, Addr: addr})
}

// Barrier emits a barrier to every core, publishes the epoch, and parks
// the producer until a Reader asks for the next one. If the consumer has
// stopped the producer meanwhile, Barrier unwinds it instead of returning.
// Only a producer running under Attach or Collect may call it.
func (g *Gen) Barrier() {
	for c := range g.readers {
		g.emit(c, Instr{Kind: Barrier})
		g.flush(c)
	}
	if !g.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Collect runs fn to completion through the same pull path the simulator
// uses and returns every core's full instruction sequence. Intended for
// tests, trace dumping and benchmarks; a panic in fn is re-raised.
func Collect(ncores int, fn func(*Gen)) [][]Instr {
	g := NewGen(ncores)
	stop := g.Attach(fn)
	out := make([][]Instr, ncores)
	for c := range out {
		r := g.Reader(c)
		for r.Next() {
			out[c] = append(out[c], r.In)
		}
	}
	if err := stop(); err != nil {
		panic(err)
	}
	return out
}
