// Package dram models the main-memory side of Table I: a fixed DRAM access
// latency plus memory-controller queuing delay under a configurable service
// bandwidth. The model is deliberately simple — a single service pipe with
// back-to-back issue spacing — which is enough to reproduce both queuing
// under prefetch bursts and the bandwidth-saturation behaviour discussed in
// Section VI-F.
package dram

import "prodigy/internal/obs"

// Config parameterizes the controller.
type Config struct {
	// AccessLat is the cycles from issue to data return with an empty
	// queue (Table I: 120).
	AccessLat int64
	// ServiceInterval is the minimum cycle spacing between successive
	// request issues — the inverse bandwidth in cycles per cache line.
	// Table I's 100 GB/s at 2.66 GHz and 64 B lines is ~1.7 cy/line.
	ServiceInterval int64
}

// Default returns the Table I configuration.
func Default() Config {
	return Config{AccessLat: 120, ServiceInterval: 2}
}

// Stats aggregates controller counters.
type Stats struct {
	Requests        uint64
	Writes          uint64
	TotalQueueDelay uint64
	BusyCycles      uint64
}

// Controller is the memory-controller queue. It is prefetch-aware in the
// sense of Lee et al. [58] (which the paper cites as the class of
// controller Prodigy runs with): demand reads are scheduled at high
// priority, while prefetches and writebacks share whatever bandwidth
// demands leave over. Without this, an aggressive prefetcher's traffic
// would queue ahead of the very loads it is trying to accelerate.
//
// Every request occupies one non-overlapping service slot of
// ServiceInterval cycles. A demand is delayed only by earlier demands and
// by the single low-priority slot already in service when it arrives
// (< ServiceInterval cycles of interference, as in the real controller's
// non-preemptive pipe); low-priority slots still waiting in the queue are
// pushed back behind the demand instead. One modeling limitation is
// inherent to promising completion times at enqueue: a queued prefetch
// whose slot is displaced keeps the (optimistic) completion it was
// promised — only the slot bookkeeping shifts — so bandwidth accounting
// stays exact while displaced prefetches may report slightly early fills.
type Controller struct {
	cfg Config
	// demandTail is the end of the last demand service slot.
	demandTail int64
	// lp holds the start cycles of low-priority slots not yet in service
	// (a FIFO; lpHead indexes its logical front). Entries are discarded as
	// simulated time passes them.
	lp     []int64
	lpHead int
	// serviceEnd is the end of the most recent low-priority slot known to
	// have entered service — the non-preemptible occupancy a demand must
	// respect.
	serviceEnd int64
	// pfFree is the end of the last booked low-priority slot (the next
	// low-priority append point).
	pfFree int64
	Stats  Stats

	// Stamped interval counters (inert when obs is nil): both are booked
	// at a cycle other than the current one.
	obs     *obs.Recorder
	busyID  obs.CounterID
	delayID obs.CounterID
}

// New builds a controller.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg}
}

// Attach registers the controller's observability hooks: per-interval busy
// cycles (booked at each slot's start cycle) and queue delay (booked at
// the request's arrival cycle), both of which can fall in a later
// interval than the current one; the read and write counts, sampled
// from Stats; and gauges for the booked-ahead backlog and the
// low-priority queue depth. Safe to call with a nil recorder.
func (c *Controller) Attach(r *obs.Recorder) {
	if r == nil {
		return
	}
	c.obs = r
	c.busyID = r.Counter("dram.busy_cycles")
	c.delayID = r.Counter("dram.queue_delay")
	r.Counter("dram.reads", &c.Stats.Requests)
	r.Counter("dram.writes", &c.Stats.Writes)
	r.GaugeFunc("dram.backlog", func(cycle int64) float64 {
		b := c.demandTail
		if c.pfFree > b {
			b = c.pfFree
		}
		if b -= cycle; b < 0 {
			b = 0
		}
		return float64(b)
	})
	r.GaugeFunc("dram.queue_depth", func(cycle int64) float64 {
		c.advance(cycle)
		return float64(len(c.lp) - c.lpHead)
	})
}

// advance retires every low-priority slot that has entered service by
// cycle now. It is monotone and idempotent per cycle.
//
//hot:inline
func (c *Controller) advance(now int64) {
	for c.lpHead < len(c.lp) && c.lp[c.lpHead] <= now {
		c.serviceEnd = c.lp[c.lpHead] + c.cfg.ServiceInterval
		c.lpHead++
	}
	if c.lpHead == len(c.lp) {
		c.lp = c.lp[:0]
		c.lpHead = 0
	}
}

// book records one service slot starting at start for the stats and the
// interval metrics.
//
//hot:inline
func (c *Controller) book(start int64) {
	c.Stats.BusyCycles += uint64(c.cfg.ServiceInterval)
	c.obs.AddAt(c.busyID, start, uint64(c.cfg.ServiceInterval))
}

// Request enqueues a high-priority demand read arriving at cycle now and
// returns the cycle at which data is available. The demand waits for
// earlier demands and for the low-priority slot already in service, never
// for low-priority slots still queued — those are displaced behind it.
//
//hot:path
func (c *Controller) Request(now int64) int64 {
	c.advance(now)
	start := now
	if c.demandTail > start {
		start = c.demandTail
	}
	if c.serviceEnd > start {
		start = c.serviceEnd
	}
	c.demandTail = start + c.cfg.ServiceInterval
	// Displace queued low-priority slots that the demand's slot now
	// overlaps; back-to-back neighbours cascade.
	bound := c.demandTail
	for i := c.lpHead; i < len(c.lp); i++ {
		if c.lp[i] >= bound {
			break
		}
		c.lp[i] += c.cfg.ServiceInterval
		bound = c.lp[i] + c.cfg.ServiceInterval
		if i == len(c.lp)-1 {
			c.pfFree = bound
		}
	}
	if c.lpHead == len(c.lp) && c.pfFree < c.demandTail {
		c.pfFree = c.demandTail
	}
	c.Stats.Requests++
	c.Stats.TotalQueueDelay += uint64(start - now)
	c.book(start)
	c.obs.AddAt(c.delayID, now, uint64(start-now))
	return start + c.cfg.AccessLat
}

// RequestPrefetch enqueues a low-priority prefetch read arriving at cycle
// now; it is served only with bandwidth demands leave over.
//
//hot:path
func (c *Controller) RequestPrefetch(now int64) int64 {
	c.advance(now)
	start := c.lowPriorityStart(now)
	c.Stats.Requests++
	c.Stats.TotalQueueDelay += uint64(start - now)
	c.book(start)
	c.obs.AddAt(c.delayID, now, uint64(start-now))
	return start + c.cfg.AccessLat
}

// lowPriorityStart books the next low-priority slot for an arrival at now
// and returns its start cycle.
//
//hot:inline
func (c *Controller) lowPriorityStart(now int64) int64 {
	start := now
	if c.pfFree > start {
		start = c.pfFree
	}
	//lint:allow hotpath-alloc slot queue reaches steady-state capacity; advance compacts it in place, so growth is amortized across the run
	c.lp = append(c.lp, start)
	c.pfFree = start + c.cfg.ServiceInterval
	return start
}

// Promote returns the completion time a demand-priority request arriving
// at cycle now would get, without consuming bandwidth: used when a demand
// merges with an in-flight prefetch (MSHR promotion) — the line transfer
// is already booked on the prefetch pipe, only its priority changes.
func (c *Controller) Promote(now int64) int64 {
	c.advance(now)
	start := now
	if c.demandTail > start {
		start = c.demandTail
	}
	if c.serviceEnd > start {
		start = c.serviceEnd
	}
	return start + c.cfg.AccessLat
}

// Write enqueues a writeback arriving at cycle now. Writebacks occupy
// low-priority bandwidth but nobody waits on them.
//
//hot:path
func (c *Controller) Write(now int64) {
	c.advance(now)
	start := c.lowPriorityStart(now)
	c.Stats.Writes++
	c.book(start)
}

// Utilization returns the fraction of elapsed cycles the controller's pipe
// was busy, the Section VI-F saturation metric.
func (c *Controller) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(c.Stats.BusyCycles) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// AvgQueueDelay returns the mean queuing delay per read request.
func (c *Controller) AvgQueueDelay() float64 {
	if c.Stats.Requests == 0 {
		return 0
	}
	return float64(c.Stats.TotalQueueDelay) / float64(c.Stats.Requests)
}
