package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanLayers are the layers whose self time a traced run reports, named
// after the repository's modules. Spans of layer "bench" (the
// benchmark's own pass and suite roots) are recorded but not reported.
var spanLayers = []string{"workloads", "trace", "sim", "cache", "exp", "farm", "serve"}

// span is one timed call across a layer boundary. Spans of one cell or
// request share its Cell identifier; Parent is the enclosing span's ID
// (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	start  time.Time
	end    time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name, cell string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Cell: cell, start: now})
	return len(t.spans)
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// record adds a span whose bounds were observed elsewhere (a cell's
// simulation interval, reconstructed from the wall time on its summary
// line and the moment the line arrived).
func (t *tracer) record(parent int, layer, name, cell string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name, Cell: cell, start: start, end: end})
	return len(t.spans)
}

// selfTime sums, per layer, each span's duration minus the part of its
// interval covered by its children (children may overlap when they ran
// in parallel; the covered part is the union of their intervals).
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		var iv [][2]time.Time
		for _, c := range children[i+1] {
			cs, ce := t.spans[c].start, t.spans[c].end
			if ce.IsZero() {
				continue
			}
			if cs.Before(s.start) {
				cs = s.start
			}
			if ce.After(s.end) {
				ce = s.end
			}
			if ce.After(cs) {
				iv = append(iv, [2]time.Time{cs, ce})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
		var covered time.Duration
		var curS, curE time.Time
		for _, v := range iv {
			if curE.IsZero() || v[0].After(curE) {
				covered += curE.Sub(curS)
				curS, curE = v[0], v[1]
			} else if v[1].After(curE) {
				curE = v[1]
			}
		}
		covered += curE.Sub(curS)
		out[s.Layer] += s.end.Sub(s.start) - covered
	}
	return out
}

// write dumps every span as one JSON line, times in milliseconds since
// the tracer started.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		s.Start = ms(s.start.Sub(t.t0))
		s.End = ms(s.end.Sub(t.t0))
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("span dump: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
