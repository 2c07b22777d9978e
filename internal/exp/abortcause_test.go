package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"prodigy/internal/sim"
)

// TestAbortKindClassification pins the abort taxonomy: the typed sim
// sentinels map to their named tags, and an interrupted run reports the
// cause recorded by whichever interrupt source tripped — a server cancel
// is "canceled", never misreported as "timeout".
func TestAbortKindClassification(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("exp: bfs-po/none: %w", err) }
	cases := []struct {
		err   error
		cause string
		want  string
	}{
		{wrap(sim.ErrInterrupted), AbortTimeout, "timeout"},
		{wrap(sim.ErrInterrupted), AbortCanceled, "canceled"},
		{wrap(sim.ErrInterrupted), AbortShutdown, "shutdown"},
		{wrap(sim.ErrInterrupted), "", "interrupted"},
		{wrap(sim.ErrMaxCycles), "", "max-cycles"},
		{wrap(sim.ErrDeadlock), "", "deadlock"},
		{wrap(errors.New("boom")), "", "error"},
		// A cause only applies to interrupts; other sentinels ignore it.
		{wrap(sim.ErrMaxCycles), AbortCanceled, "max-cycles"},
	}
	for _, c := range cases {
		if got := abortKind(c.err, c.cause); got != c.want {
			t.Errorf("abortKind(%v, %q) = %q, want %q", c.err, c.cause, got, c.want)
		}
	}
}

// TestInterruptCauseCanceled is the regression for the abort
// misclassification bug: an external canceler (Config.Interrupt) used to
// surface as abort="timeout" because every sim.ErrInterrupted was
// attributed to the watchdog. The JSONL record must say "canceled".
func TestInterruptCauseCanceled(t *testing.T) {
	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	cfg.Interrupt = func() string { return AbortCanceled }
	h := New(cfg)
	_, err := h.RunOne("bfs", "po", SchemeNone)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("expected interrupt abort, got %v", err)
	}
	var s RunSummary
	if uerr := json.Unmarshal(jsonl.Bytes(), &s); uerr != nil {
		t.Fatalf("no JSONL abort record: %v (log %q)", uerr, jsonl.String())
	}
	if s.Abort != AbortCanceled {
		t.Errorf("abort = %q, want %q (external cancel misclassified)", s.Abort, AbortCanceled)
	}
}

// TestInterruptCauseBeatsExpiredTimeout pins the documented poll order:
// external interrupts are checked ahead of the RunTimeout watchdog, so a
// cell canceled after its deadline already expired is still reported
// "canceled", not "timeout".
func TestInterruptCauseBeatsExpiredTimeout(t *testing.T) {
	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	cfg.RunTimeout = time.Nanosecond // expired before the first poll
	cfg.Interrupt = func() string { return AbortShutdown }
	h := New(cfg)
	if _, err := h.RunOne("bfs", "po", SchemeNone); !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("expected interrupt abort, got %v", err)
	}
	var s RunSummary
	if uerr := json.Unmarshal(jsonl.Bytes(), &s); uerr != nil {
		t.Fatalf("no JSONL abort record: %v", uerr)
	}
	if s.Abort != AbortShutdown {
		t.Errorf("abort = %q, want %q (external cause outranks the expired watchdog)", s.Abort, AbortShutdown)
	}
}

// TestSummaryGoldenSchema pins the exact JSONL bytes for the two
// degenerate record shapes that used to disagree: a completed run whose
// stall total is zero and an aborted run that never simulated a cycle.
// Both must carry "cpi_stack":{} — one schema, never null — so JSONL
// consumers (and the farm's byte-identical replay cache) see a stable
// contract.
func TestSummaryGoldenSchema(t *testing.T) {
	completed, err := json.Marshal(summarize(&Run{Label: "x", Scheme: SchemeNone}, ""))
	if err != nil {
		t.Fatal(err)
	}
	wantCompleted := `{"label":"x","scheme":"none","cycles":0,"retired":0,"ipc":0,"cpi_stack":{},"dram_util":0,"wall_ms":0}`
	if string(completed) != wantCompleted {
		t.Errorf("completed zero-total record:\n got %s\nwant %s", completed, wantCompleted)
	}

	var jsonl bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	h := New(cfg)
	h.emitAbort("x", SchemeNone, "", errors.New("boom"), "", sim.Result{}, 0)
	wantAborted := `{"label":"x","scheme":"none","cycles":0,"retired":0,"ipc":0,"cpi_stack":{},"dram_util":0,"wall_ms":0,"abort":"error","error":"boom"}` + "\n"
	if jsonl.String() != wantAborted {
		t.Errorf("aborted zero-progress record:\n got %s\nwant %s", jsonl.String(), wantAborted)
	}
}

// TestWriteJSONMarshalErrorReported is the regression for the silent
// json.Marshal drop: an unmarshalable summary (NaN IPC) must surface on
// the harness error stream naming the cell, and write nothing to the
// sweep log (no partial line, no hole disguised as success).
func TestWriteJSONMarshalErrorReported(t *testing.T) {
	var jsonl, errs bytes.Buffer
	cfg := goldenCfg(1)
	cfg.JSONLog = &jsonl
	h := New(cfg)
	h.errw = &errs
	h.writeJSON(RunSummary{Label: "bfs-po", Scheme: "none", IPC: math.NaN(), CPIStack: map[string]float64{}})
	if jsonl.Len() != 0 {
		t.Errorf("unmarshalable summary wrote %q to the JSON log", jsonl.String())
	}
	out := errs.String()
	if !strings.Contains(out, "marshal failed") || !strings.Contains(out, "bfs-po/none") {
		t.Errorf("marshal failure not reported with the cell name: %q", out)
	}
}

// TestReleaseWorkloadsDropsDatasets is the regression for the memo-cache
// workload leak: with ReleaseWorkloads set, every completed entry must
// drop its workload reference once verified, across repeated sweeps, so
// a long-running sweep service retains only statistics — while the
// default keeps Run.W for callers that read it (examples, DIG coverage).
func TestReleaseWorkloadsDropsDatasets(t *testing.T) {
	cells := []Cell{
		{"bfs", "po", SchemeNone},
		{"bfs", "po", SchemeProdigy},
		{"spmv", "", SchemeProdigy},
	}
	retained := func(h *Harness) (with, total int) {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, e := range h.cache {
			if e.run == nil {
				continue
			}
			total++
			if e.run.W != nil {
				with++
			}
		}
		return with, total
	}

	cfg := goldenCfg(2)
	cfg.ReleaseWorkloads = true
	h := New(cfg)
	// Repeated sweeps over an overlapping grid: the second pass replays
	// from the memo cache and must not resurrect or re-pin workloads.
	for i := 0; i < 3; i++ {
		if _, err := h.RunGrid(cells); err != nil {
			t.Fatal(err)
		}
	}
	if with, total := retained(h); total != len(cells) || with != 0 {
		t.Errorf("release harness retains %d/%d workloads, want 0/%d", with, total, len(cells))
	}

	keep := New(goldenCfg(2))
	if _, err := keep.RunGrid(cells[:1]); err != nil {
		t.Fatal(err)
	}
	if with, total := retained(keep); with != total || total != 1 {
		t.Errorf("default harness retains %d/%d workloads, want every completed run to keep W", with, total)
	}
}
