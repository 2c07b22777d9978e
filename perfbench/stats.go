package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"prodigy/internal/cache"
	"prodigy/internal/exp"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// cellID names a summary line's grid cell: label/scheme, plus the
// variant for ablation cells.
func cellID(s exp.RunSummary) string {
	id := s.Label + "/" + s.Scheme
	if s.Variant != "" {
		id += "/" + s.Variant
	}
	return id
}

// simFields renders the simulated (host-independent) part of a summary
// line: everything but the wall time. It must repeat exactly across
// runs of the same cell.
func simFields(s exp.RunSummary) string {
	s.WallMS = 0
	b, err := json.Marshal(s)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// splitLines splits NDJSON into its non-empty lines.
func splitLines(body []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.Split(body, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// sortedLines returns the lines in byte order, for order-insensitive
// comparison of a live stream (completion order) with a replay (grid
// order).
func sortedLines(lines [][]byte) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = string(l)
	}
	slices.Sort(out)
	return out
}

// simRef checks that every cell's simulated fields repeat exactly
// across passes of one run.
type simRef map[string]string

func (r simRef) check(s exp.RunSummary) error {
	id, got := cellID(s), simFields(s)
	want, ok := r[id]
	if !ok {
		r[id] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("%s: simulated results differ between passes:\n  first %s\n  now   %s", id, want, got)
	}
	return nil
}

// modelFromLines derives the simulated end-to-end metrics from default-
// knob summary lines: the geomean none/prodigy cycle ratio over cells
// with both, aggregate prefetch accuracy over the prodigy cells, and
// their mean coverage (the summary line carries coverage only as a
// ratio).
func modelFromLines(lines []exp.RunSummary) (speedup, accuracy, coverage float64, err error) {
	none := map[string]int64{}
	pro := map[string]exp.RunSummary{}
	for _, s := range lines {
		if s.Variant != "" || s.Abort != "" {
			continue
		}
		switch exp.Scheme(s.Scheme) {
		case exp.SchemeNone:
			none[s.Label] = s.Cycles
		case exp.SchemeProdigy:
			pro[s.Label] = s
		}
	}
	var ratios []float64
	var useful, fills uint64
	var cov []float64
	labels := make([]string, 0, len(pro))
	for l := range pro {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		p := pro[l]
		if n, ok := none[l]; ok && p.Cycles > 0 {
			ratios = append(ratios, float64(n)/float64(p.Cycles))
		}
		if p.PF != nil {
			useful += p.PF.Timely + p.PF.Late
			fills += p.PF.Fills
			cov = append(cov, p.PF.Coverage)
		}
	}
	if len(ratios) == 0 || fills == 0 || len(cov) == 0 {
		return 0, 0, 0, fmt.Errorf("no none/prodigy cell pair with prefetch statistics among %d lines", len(lines))
	}
	var covSum float64
	for _, c := range cov {
		covSum += c
	}
	return geomean(ratios), float64(useful) / float64(fills), covSum / float64(len(cov)), nil
}

// hostPerInstr splits host time per simulated instruction by scheme over
// default-knob lines: ns/instr for none and prodigy cells, and the
// prodigy-minus-none difference over labels that have both.
func hostPerInstr(lines []exp.RunSummary) (noneNS, proNS, addedNS float64) {
	type acc struct{ wallMS, instrs float64 }
	by := map[string]map[exp.Scheme]acc{}
	var n, p acc
	for _, s := range lines {
		if s.Variant != "" || s.Abort != "" || s.Retired == 0 {
			continue
		}
		sc := exp.Scheme(s.Scheme)
		if sc != exp.SchemeNone && sc != exp.SchemeProdigy {
			continue
		}
		if by[s.Label] == nil {
			by[s.Label] = map[exp.Scheme]acc{}
		}
		a := by[s.Label][sc]
		a.wallMS += s.WallMS
		a.instrs += float64(s.Retired)
		by[s.Label][sc] = a
	}
	for _, m := range by {
		nn, okN := m[exp.SchemeNone]
		pp, okP := m[exp.SchemeProdigy]
		if !okN || !okP {
			continue
		}
		n.wallMS += nn.wallMS
		n.instrs += nn.instrs
		p.wallMS += pp.wallMS
		p.instrs += pp.instrs
	}
	if n.instrs == 0 || p.instrs == 0 {
		return 0, 0, 0
	}
	noneNS = n.wallMS * 1e6 / n.instrs
	proNS = p.wallMS * 1e6 / p.instrs
	return noneNS, proNS, proNS - noneNS
}

// cancelSet holds cancel-probe costs by probed cell.
type cancelSet map[string][]cost

func (cs cancelSet) add(cell string, c cost) { cs[cell] = append(cs[cell], c) }

func (cs cancelSet) n() int {
	n := 0
	for _, v := range cs {
		n += len(v)
	}
	return n
}

// typical is the geometric mean, over the probed cells, of each cell's
// median (of the CPU or the wall time). Run-outs differ by cell (cg's is
// about twice cc-lj's), so a median pooled across cells would jump
// between the two clusters from run to run.
func (cs cancelSet) typical(wall bool) float64 {
	var meds []float64
	for _, v := range cs {
		xs := make([]float64, len(v))
		for i, c := range v {
			xs[i] = ms(c.CPU)
			if wall {
				xs[i] = ms(c.Wall)
			}
		}
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// wallInfo reports the wall-clock views of cpu_s and cancel_cpu_ms_p50
// on standard error. They are not result metrics: on a shared host they
// swing with other tenants' load far more than the CPU-time metrics do.
func (b *bench) wallInfo(wallS float64, cancels cancelSet) {
	b.logf("wall clock (information only): wall_s %.4f s, cancel_ms_p50 %.3f ms (%d probes)",
		wallS, cancels.typical(true), cancels.n())
}

// tracedPass says whether the i-th pass (or suite) of a traced run
// is traced. Untraced and traced passes come in pairs whose order
// alternates, untraced first and then traced first, so that neither
// kind always runs second.
func tracedPass(i int) bool { return i%4 == 1 || i%4 == 2 }

// overhead is the tracing overhead: the traced passes' CPU time over the
// untraced ones', less one. The pairs are equal in number.
func overhead(plain, traced time.Duration) float64 {
	return float64(traced-plain) / float64(plain)
}

// endToEnd is what a workload's untraced run hands to setEndToEnd.
type endToEnd struct {
	// lines are the summary lines of one pass or suite.
	lines []exp.RunSummary
	// cpuS is the host CPU time of that work.
	cpuS, setupS, rssMB float64
	cancels             cancelSet
}

// setEndToEnd sets every end-to-end metric.
func (b *bench) setEndToEnd(e endToEnd) error {
	speedup, acc, cov, err := modelFromLines(e.lines)
	if err != nil {
		return err
	}
	var retired float64
	for _, s := range e.lines {
		retired += float64(s.Retired)
	}
	b.set("cpu_s", "s", e.cpuS)
	b.set("setup_s", "s", e.setupS)
	b.set("sim_minstr_per_cpu_s", "Minstr/s", retired/e.cpuS/1e6)
	b.set("peak_rss_mb", "MiB", e.rssMB)
	b.set("prodigy_speedup_x", "x", speedup)
	b.set("pf_accuracy", "ratio", acc)
	b.set("pf_coverage", "ratio", cov)
	b.set("cancel_cpu_ms_p50", "ms", e.cancels.typical(false))
	return nil
}

// layers is what a workload's traced run hands to setLayers.
type layers struct {
	// lines are the summary lines of one untraced pass or suite; simMS
	// sums their wall_ms, and wallMS is the wall time they ran in on
	// `workers` workers.
	lines                  []exp.RunSummary
	simMS, wallMS, workers float64
	// runs are none and prodigy results, for the model counts.
	runs []*exp.Run
	// cancels are in-process cancel probes (exp.Config.Interrupt).
	cancels  cancelSet
	overhead float64
	replay   replayStats
	// stored and storedRaw are the lines the store probe writes, under
	// the keys keyCfg resolves.
	keyCfg    exp.Config
	stored    []exp.RunSummary
	storedRaw [][]byte
	// inputs and cacheCfg are what the layer probes build and replay.
	inputs   []input
	cacheCfg func(cores int) cache.Config
}

// setLayers sets every per-layer metric but the spans' self times, and
// runs the store and layer probes to get them.
func (b *bench) setLayers(l layers) error {
	noneNS, proNS, added := hostPerInstr(l.lines)
	b.set("sim.none.ns_per_instr", "ns", noneNS)
	b.set("sim.prodigy.ns_per_instr", "ns", proNS)
	b.set("core.prodigy.ns_per_instr_added", "ns", added)
	b.set("exp.parallel_eff", "ratio", l.simMS/(l.wallMS*l.workers))
	b.set("exp.idle_ms", "ms", l.wallMS*l.workers-l.simMS)
	b.set("exp.cells_simulated", "count", float64(len(l.lines)))
	b.set("exp.cancel_ms", "ms", l.cancels.typical(true))
	b.set("tracing.overhead_frac", "ratio", l.overhead)
	b.setReplayLayer(l.replay)
	if err := b.modelCounts(l.runs); err != nil {
		return err
	}
	keys, err := cellKeys(l.keyCfg, l.stored)
	if err != nil {
		return err
	}
	if err := b.storeProbe(keys, l.storedRaw); err != nil {
		return err
	}
	return b.layerProbes(l.inputs, l.cacheCfg)
}

// setReplayLayer reports the serve layer's replay metrics.
func (b *bench) setReplayLayer(rs replayStats) {
	b.set("serve.replay_ms_p50", "ms", median(rs.lat))
	b.set("serve.replay_ms_p99", "ms", quantile(rs.lat, 0.99))
	b.set("serve.replay_ttfb_ms", "ms", median(rs.ttfb))
	b.set("serve.replay_cpu_ms", "ms", ms(rs.cpuPer))
	b.set("serve.bytes_per_replay", "bytes", float64(rs.bytes))
	b.logf("serve layer: %d replays", len(rs.lat))
}
