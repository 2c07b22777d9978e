package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// parseTrace unmarshals a catapult document and returns its event list.
func parseTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid catapult JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestCellPath(t *testing.T) {
	cases := []struct {
		path, cell string
		single     bool
		want       string
	}{
		{"out.json", "bfs-po.prodigy", false, "out.bfs-po.prodigy.json"},
		{"out.json", "bfs-po.prodigy", true, "out.json"},
		{"", "bfs-po.prodigy", false, ""},
		{"dir/trace.json", "cc-lj.none", false, "dir/trace.cc-lj.none.json"},
		{"noext", "x", false, "noext.x"},
		{"a.b.json", "cell", false, "a.b.cell.json"},
	}
	for _, c := range cases {
		if got := CellPath(c.path, c.cell, c.single); got != c.want {
			t.Errorf("CellPath(%q, %q, %v) = %q, want %q", c.path, c.cell, c.single, got, c.want)
		}
	}
}

// goldenDrive scripts a run exercising every trace-event phase the
// recorder emits — metadata (M), spans (X), instants (i), async+flow
// (b/e/s/f), and counter tracks (C) — with deterministic cycles.
func goldenDrive(r *Recorder) {
	var now int64
	var issued uint64
	r.Start(2, []string{"busy", "dram"}, func() int64 { return now })
	r.TrackCounter("sim.pf_issued", &issued)
	timely := r.TrackCounter("cache.pf_timely")

	r.StallSpan(0, 0, 0, 120)
	r.StallSpan(0, 1, 120, 260)
	r.StallSpan(1, 1, 0, 260)

	now = 10
	issued += 4
	r.Instant(0, "seq-start", "prodigy")
	r.FlowBegin(0, 3, "pf", "prefetch")
	now = 150
	r.Sample(now) // first scheduling point past the 100 boundary
	r.FlowEnd(0, 3, "pf", "prefetch")
	issued += 2
	r.AddAt(timely, 155, 1)

	r.Tick(100)
	r.Sample(260)
	r.Tick(260)
}

// TestGoldenTraceOrdering locks the full trace byte stream against a
// committed golden: event ordering (metadata first, then strictly
// chronological-by-emission), the counter-track ("C") samples per flushed
// interval including zero-delta ones, and the JSON framing. Run with
// -update to regenerate after an intentional format change.
func TestGoldenTraceOrdering(t *testing.T) {
	var tb bytes.Buffer
	r := New(Options{Interval: 100, Trace: &tb})
	goldenDrive(r)
	if err := r.Finish(260); err != nil {
		t.Fatal(err)
	}
	got := tb.Bytes()

	const path = "testdata/trace_golden.json"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from golden %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}

	// The golden must also be valid catapult JSON.
	events := parseTrace(t, got)
	// Counter tracks: 2 tracked counters x 3 flushed intervals (0..2).
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev["ph"].(string)]++
	}
	if counts["C"] != 6 {
		t.Fatalf("counter-track events = %d, want 6: %v", counts["C"], counts)
	}
	for _, ph := range []string{"M", "X", "i", "b", "e", "s", "f"} {
		if counts[ph] == 0 {
			t.Fatalf("phase %q missing from golden: %v", ph, counts)
		}
	}
}

// TestTrackCounterTraceOnly: tracked counters must buffer and flush even
// with the metrics writer disabled (the trace-only configuration).
func TestTrackCounterTraceOnly(t *testing.T) {
	var tb bytes.Buffer
	r := New(Options{Interval: 100, Trace: &tb})
	var now int64
	var issued uint64
	r.Start(1, []string{"busy"}, func() int64 { return now })
	r.TrackCounter("sim.pf_issued", &issued)
	now = 50
	issued += 7
	r.Sample(100)
	r.Tick(100)
	if err := r.Finish(100); err != nil {
		t.Fatal(err)
	}
	events := parseTrace(t, tb.Bytes())
	found := false
	for _, ev := range events {
		if ev["ph"] == "C" && ev["name"] == "sim.pf_issued" {
			args := ev["args"].(map[string]any)
			if args["value"].(float64) != 7 {
				t.Fatalf("counter track value = %v, want 7", args["value"])
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no counter-track event in trace-only mode: %s", tb.String())
	}
}

// TestTrackCounterWithoutTrace behaves exactly like Counter: same ID for
// the same name, and no buckets accumulate when neither output wants them.
func TestTrackCounterWithoutTrace(t *testing.T) {
	r := New(Options{})
	a := r.Counter("x")
	b := r.TrackCounter("x")
	if a != b {
		t.Fatalf("TrackCounter returned %d, Counter %d", b, a)
	}
	r.AddAt(a, 0, 5)
	if len(r.buckets) != 0 {
		t.Fatal("buckets allocated with no output enabled")
	}
	// And on a nil recorder both are inert.
	var nr *Recorder
	if id := nr.TrackCounter("y"); id != -1 {
		t.Fatalf("nil TrackCounter = %d, want -1", id)
	}
}

// TestTrackCounterDeduplicates: re-tracking the same name must not double
// the per-interval "C" emission.
func TestTrackCounterDeduplicates(t *testing.T) {
	var tb bytes.Buffer
	r := New(Options{Interval: 100, Trace: &tb})
	r.Start(1, nil, nil)
	r.TrackCounter("dup")
	r.TrackCounter("dup")
	if len(r.tracked) != 1 {
		t.Fatalf("tracked entries = %d, want 1", len(r.tracked))
	}
}

// TestMetricsRowsIncludeTrackedCounters: tracked counters appear in the
// metrics rows too when metrics output is on (tracking adds the trace
// view, it doesn't move the counter).
func TestMetricsRowsIncludeTrackedCounters(t *testing.T) {
	var mb, tb bytes.Buffer
	r := New(Options{Interval: 100, Metrics: &mb, Trace: &tb})
	var now int64
	var issued uint64
	r.Start(1, []string{"busy"}, func() int64 { return now })
	r.TrackCounter("sim.pf_issued", &issued)
	now = 10
	issued += 3
	r.Sample(100)
	r.Tick(100)
	if err := r.Finish(100); err != nil {
		t.Fatal(err)
	}
	rows := parseRows(t, mb.String())
	if len(rows) == 0 || rows[0].Counters["sim.pf_issued"] != 3 {
		t.Fatalf("tracked counter missing from metrics rows: %+v", rows)
	}
}
