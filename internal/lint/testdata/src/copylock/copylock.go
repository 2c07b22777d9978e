// Package copylock is a lint fixture: by-value copies of a mutex-bearing
// struct, like exp.Harness.
package copylock

import "sync"

// Gen is a lock-bearing generator stand-in.
type Gen struct {
	mu    sync.Mutex
	count int
}

// Inc copies the receiver (and its mutex) per call.
func (g Gen) Inc() int { // want copylock
	g.count++
	return g.count
}

// Snapshot copies its parameter.
func Snapshot(g Gen) int { // want copylock
	return g.count
}

// Clone copies through a dereference.
func Clone(p *Gen) int {
	g := *p // want copylock
	return g.count
}

// Sum copies each element into the range value.
func Sum(gs []Gen) int {
	t := 0
	for _, g := range gs { // want copylock
		t += g.count
	}
	return t
}

// Inspect is clean: pointers all the way down.
func Inspect(p *Gen) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}
