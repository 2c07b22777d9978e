package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"prodigy/internal/memspace"
	"prodigy/internal/obs"
	"prodigy/internal/prefetch"
	"prodigy/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the observability golden files")

// checkGolden compares got with testdata/<name>, rewriting the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%s differs from the golden (%d vs %d bytes); re-run with -update only for an intended format change",
			path, len(got), len(want))
	}
}

// stridePairRun is the 2-core stride-prefetched scan: both cores sweep an
// array forward, meet at a barrier, then sweep it backward.
func stridePairRun(t testing.TB, rec *obs.Recorder) Result {
	space := memspace.New()
	arr := space.AllocU32("a", 2048)
	cfg := Default(2)
	cfg.Prefetcher = prefetch.Stride(prefetch.StrideConfig{Degree: 4, TableSize: 64})
	cfg.Obs = rec
	res, err := Run(cfg, space, trace.NewGen(2), func(g *trace.Gen) {
		for i := range arr.Data {
			g.Load(i%2, 1, arr.Addr(i))
		}
		g.Barrier()
		for i := range arr.Data {
			g.Load(i%2, 2, arr.Addr(len(arr.Data)-1-i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dramBoundRun is a single-core run of one load per cache line (every
// access a DRAM miss) followed by a burst of store misses, whose
// bandwidth is booked in cycles past the run's end.
func dramBoundRun(t testing.TB, rec *obs.Recorder) Result {
	space := memspace.New()
	arr := space.AllocU32("a", 1<<12)
	cfg := Default(1)
	cfg.Obs = rec
	res, err := Run(cfg, space, trace.NewGen(1), func(g *trace.Gen) {
		for i := 0; i < len(arr.Data)/2; i += 16 {
			g.Load(0, 1, arr.Addr(i))
		}
		for i := len(arr.Data) / 2; i < len(arr.Data); i += 16 {
			g.Store(0, 2, arr.Addr(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dramBoundInterval divides dramBoundRun's final cycle exactly, so the
// run ends on an interval boundary.
const dramBoundInterval = 57

// TestObsGoldenOutput locks the metrics JSONL and Chrome trace bytes of
// three runs against golden files: the Prodigy-prefetched irregular
// kernel, the 2-core stride scan, and a DRAM-bound run whose final cycle
// falls exactly on an interval boundary (with bandwidth booked past it).
func TestObsGoldenOutput(t *testing.T) {
	cases := []struct {
		name       string
		interval   int64
		run        func(testing.TB, *obs.Recorder) Result
		onBoundary bool
	}{
		{"irregular-prodigy", 500, func(t testing.TB, rec *obs.Recorder) Result { return runIrregular(t, 1<<9, rec) }, false},
		{"stride-2core", 1000, stridePairRun, false},
		{"dram-bound", dramBoundInterval, dramBoundRun, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var metrics, tr bytes.Buffer
			rec := obs.New(obs.Options{Interval: c.interval, Metrics: &metrics, Trace: &tr})
			res := c.run(t, rec)
			if c.onBoundary && res.Cycles%c.interval != 0 {
				t.Fatalf("run ends at cycle %d, not on a %d-cycle boundary", res.Cycles, c.interval)
			}
			checkGolden(t, c.name+".metrics.jsonl", metrics.Bytes())
			checkGolden(t, c.name+".trace.json", tr.Bytes())
		})
	}
}
