// Command perfbench is the simulator's host-cost benchmark. It runs whole
// simulations through the simulator's public Go APIs, checks every output
// against an oracle, and prints host wall-clock, allocation and memory
// metrics; a traced run (--trace 1) adds per-layer costs timed from
// outside each layer's public functions. Simulated cycles serve only as a
// correctness check. Run it from the repository root:
//
//	python3 perfbench/run.py --workload frame8 --seed 0 --seconds 30 --trace 0
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. A failed oracle makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chopin/internal/multigpu"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_ms_p50", "ms"},
	{"sim_ms_tail", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.generate_ms", "ms"},
		{"multigpu.new_ms", "ms"},
		{"multigpu.new_mb", "MB"},
		{"sfr.run_ms_p50", "ms"},
		{"sfr.run_mb_p50", "MB"},
		{"raster.ns_per_frag", "ns"},
		{"raster.frags", "count"},
		{"framebuffer.new_clear_us", "us"},
		{"composite.merge_ns_per_px", "ns"},
		{"plan.build_us", "us"},
		{"composite.comp_mb", "MB"},
		{"sim.cycles", "cycles"},
		{"sim.tail_pct", "%"},
		{"sim.tail_n", "count"},
		{"experiments.cpu_util", "frac"},
		{"runrec.write_ms", "ms"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.alloc_objects", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.peak_rss_mb", "MB"},
		{"failed_frac", "frac"},
		{"trace.overhead_s", "s"},
		{"trace.overhead_frac", "frac"},
	}
	for _, p := range profiledPackages {
		defs = append(defs, metricDef{p + ".cpu_frac", "frac"})
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// exitCode is 1 when any simulation errored or failed its oracle.
func (r *result) exitCode() int {
	if r.Correct && r.Failed == 0 {
		return 0
	}
	return 1
}

// runOpts controls one measurement.
type runOpts struct {
	seconds float64
	traced  bool
	out     string
}

const (
	// setupSlice is how long a run sets up (at least once) before each
	// timed pass and after the last one. Spreading the set-ups over the run
	// lets their median sample the same stretch of time as the passes, so
	// a few slow seconds on the host move it no more than they move the
	// passes.
	setupSlice = 500 * time.Millisecond
	// hardStop bounds the timed phase whatever minPasses asks for, so a
	// run on a loaded host still ends well inside three minutes.
	hardStop = 120 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "frame8", "workload: frame8, scaleout64 or sweep")
		seed    = fs.Int64("seed", 0, "input seed; 0 reproduces the Table III traces and enables the cycles digest")
		seconds = fs.Float64("seconds", 30, "time budget of the timed phase in seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced, per-layer measurement")
		out     = fs.String("out", ".bench_build/perfbench", "directory for run artifacts (spans, CPU profiles, run record)")
		update  = fs.Bool("update", false, "record the oracle files under perfbench/testdata from this run (seed 0)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(*name, *seed, *update, *out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	opts := runOpts{seconds: *seconds, traced: *traced == 1, out: *out}
	res, first, err := measure(w, *seed, opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *update {
		if err := writeOracles(w, first); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return res.exitCode()
}

// writeOracles records the oracle files from a run's first pass.
func writeOracles(w *workload, first passResult) error {
	dir := filepath.Join("perfbench", "testdata")
	if w.sweep != nil {
		return os.WriteFile(filepath.Join(dir, "sweep-fig19.txt"), []byte(w.sweep.lastTable), 0o644)
	}
	return os.WriteFile(filepath.Join(dir, w.name+".cycles"), []byte(formatDigest(first.sims)), 0o644)
}

// measure runs timed passes until the time budget is spent (at least
// minPasses of them), with a slice of timed set-ups before each pass and
// after the last, and reduces them to metrics. In a traced run every
// second pass is traced: spans, per-call allocation and a CPU profile are
// taken on it, the untraced passes keep the runtime figures clean, and the
// difference is the tracing overhead.
// It also returns the first pass, from which oracle files are recorded.
func measure(w *workload, seed int64, o runOpts, log io.Writer) (*result, passResult, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	if err := w.warmUp(tr); err != nil {
		return nil, passResult{}, fmt.Errorf("warm-up: %w", err)
	}
	if w.sweep != nil {
		fmt.Fprintf(log, "%s: inputs are the fixed Table III traces; the seed does not change them\n", w.name)
	}
	var setupS, genMS []float64
	setUp := func() error {
		sliceStart := time.Now()
		for n := 0; n == 0 || time.Since(sliceStart) < setupSlice; n++ {
			settle()
			t := time.Now()
			g, err := w.setup(seed, tr)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setupS = append(setupS, time.Since(t).Seconds())
			genMS = append(genMS, g)
		}
		return nil
	}

	minPasses := w.minPasses
	if o.traced {
		minPasses = max(minPasses, 2)
	}
	var (
		plain, traced []passCost
		passes        []passResult
		calls         callCosts
		simMS         []float64
		writeMS       []float64
		prof          profile
	)
	start := time.Now()
	for i := 0; ; i++ {
		if err := setUp(); err != nil {
			return nil, passResult{}, err
		}
		elapsed := time.Since(start)
		if i > 0 && (i >= minPasses || elapsed > hardStop) {
			meanPass := elapsed.Seconds() / float64(i)
			if elapsed.Seconds()+meanPass > o.seconds || elapsed > hardStop {
				break
			}
		}
		isTraced := o.traced && i%2 == 1
		var ptr *tracer
		if isTraced {
			ptr = tr
			if err := prof.start(); err != nil {
				return nil, passResult{}, err
			}
		}
		s0 := startPass()
		c := ptr.start()
		pr := w.pass(ptr)
		ptr.end(fmt.Sprintf("pass %d", i), c)
		cost := endPass(s0, w.workers)
		label := ""
		if isTraced {
			label = " (traced)"
			if err := prof.stop(filepath.Join(o.out, fmt.Sprintf("%s-cpu-%d.pprof", w.name, i))); err != nil {
				return nil, passResult{}, err
			}
			traced = append(traced, cost)
			if err := calls.add(w, pr, tr); err != nil {
				pr.fail("layer replay: %v", err)
			}
		} else {
			plain = append(plain, cost)
			simMS = append(simMS, pr.simMS...)
		}
		if w.sweep != nil {
			writeMS = append(writeMS, pr.writeMS)
		}
		// Keep only the summary of a pass (and the first pass's outcomes,
		// for --update): a finished system is hundreds of MB.
		pr.last = nil
		if len(passes) > 0 {
			pr.sims = nil
		}
		passes = append(passes, pr)
		fmt.Fprintf(log, "%s: pass %d%s: %.3f s, %.0f MB allocated, peak RSS %.0f MB, %d/%d failed\n",
			w.name, i, label, cost.wall, cost.allocMB, cost.peakRSSMB, pr.failed, pr.attempted)
		for _, p := range pr.problems {
			fmt.Fprintf(log, "%s: FAIL %s\n", w.name, p)
		}
	}

	fmt.Fprintf(log, "%s: seed %d, set-up %v s\n", w.name, seed, fmtFloats(setupS))

	res := &result{Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	// Simulated counts must not change from pass to pass.
	for _, p := range passes[1:] {
		if p.failed == 0 && passes[0].failed == 0 && (p.cycles != passes[0].cycles || p.compBytes != passes[0].compBytes) {
			res.Failed++
			fmt.Fprintf(log, "%s: FAIL simulated cycles or composition bytes differ between passes\n", w.name)
		}
	}

	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	pct := w.tailPct()
	if !o.traced {
		set("wall_s", medianOf(plain, func(c passCost) float64 { return c.wall }))
		set("sim_ms_p50", quantile(simMS, 0.5))
		set("sim_ms_tail", quantile(simMS, float64(pct)/100))
		set("alloc_mb", medianOf(plain, func(c passCost) float64 { return c.allocMB }))
		set("peak_rss_mb", medianOf(plain, func(c passCost) float64 { return c.peakRSSMB }))
		set("setup_s", median(setupS))
		fmt.Fprintf(log, "%s: sim_ms_tail is p%d, fixed by the guaranteed %d simulations; this run took %d (%d passes × %d)\n",
			w.name, pct, w.tailSample(), len(simMS), len(plain), w.simsPerPass())
		if b, err := json.Marshal(simMS); err == nil {
			_ = os.WriteFile(filepath.Join(o.out, w.name+"-sim-ms.json"), b, 0o644) // diagnostics only
		}
	} else {
		if err := layerMetrics(w, tr, &calls, set); err != nil {
			res.Failed++
			fmt.Fprintf(log, "%s: FAIL layer replay: %v\n", w.name, err)
		}
		set("trace.generate_ms", median(genMS))
		set("composite.comp_mb", passes[0].compBytes/1e6)
		set("sim.cycles", passes[0].cycles)
		set("sim.tail_pct", float64(pct))
		set("sim.tail_n", float64(w.tailSample()))
		set("experiments.cpu_util", medianOf(plain, func(c passCost) float64 { return c.cpuUtil }))
		set("runtime.gc_cpu_frac", medianOf(plain, func(c passCost) float64 { return c.gcCPUFrac }))
		set("runtime.alloc_objects", medianOf(plain, func(c passCost) float64 { return c.allocObjs }))
		set("runtime.gc_cycles", medianOf(plain, func(c passCost) float64 { return c.gcCycles }))
		set("runtime.peak_rss_mb", medianOf(plain, func(c passCost) float64 { return c.peakRSSMB }))
		if w.sweep != nil {
			set("runrec.write_ms", median(writeMS))
		}
		plainWall := medianOf(plain, func(c passCost) float64 { return c.wall })
		over := medianOf(traced, func(c passCost) float64 { return c.wall }) - plainWall
		set("trace.overhead_s", over)
		set("trace.overhead_frac", over/plainWall)
		fmt.Fprintf(log, "%s: tracing overhead %+.3f s per pass (%+.1f%%) over the untraced pass\n",
			w.name, over, 100*over/plainWall)
		fracs, err := prof.groupFractions()
		if err != nil {
			return nil, passResult{}, err
		}
		for g, f := range fracs {
			set(g+".cpu_frac", f)
		}
		if err := tr.write(filepath.Join(o.out, w.name+"-spans.json")); err != nil {
			return nil, passResult{}, err
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if o.traced {
		set("failed_frac", float64(res.Failed)/float64(res.Attempted))
	}
	res.Correct = res.Failed == 0
	for _, d := range metricsFor(o.traced) {
		if _, ok := res.Metrics[d.name]; !ok {
			set(d.name, 0)
		}
	}
	return res, passes[0], nil
}

// callCosts gathers the per-call costs of the traced passes: every
// simulation's multigpu.New and Scheme.Run, plus the replays that need a
// pass's finished systems or statistics, taken right after the pass so no
// system outlives it.
type callCosts struct {
	newMS, newMB, runMS, runMB []float64
	mergeNsPerPx, writeMS      []float64
}

func (cc *callCosts) add(w *workload, pr passResult, tr *tracer) error {
	for _, s := range pr.sims {
		cc.newMS = append(cc.newMS, s.newMS)
		cc.newMB = append(cc.newMB, s.newMB)
		cc.runMS = append(cc.runMS, s.runMS)
		cc.runMB = append(cc.runMB, s.runMB)
	}
	if pr.last != nil {
		cc.mergeNsPerPx = append(cc.mergeNsPerPx, mergeReplay(pr.last, tr))
	}
	if w.sweep != nil {
		return nil
	}
	ms, err := recordReplay(w.name, pr.sims, tr)
	cc.writeMS = append(cc.writeMS, ms)
	return err
}

// layerMetrics runs the traced run's remaining layer replays and reduces
// the per-call costs to metrics.
func layerMetrics(w *workload, tr *tracer, cc *callCosts, set func(string, float64)) error {
	if w.sweep != nil {
		// The sweep's simulations run inside the experiments package; its
		// per-call costs come from replaying its 8-GPU simulations.
		rp := w.set.run(tr)
		if rp.failed > 0 {
			return fmt.Errorf("sweep replay: %v", rp.problems)
		}
		if err := cc.add(w, rp, tr); err != nil {
			return err
		}
	} else {
		set("runrec.write_ms", median(cc.writeMS))
	}
	set("multigpu.new_ms", median(cc.newMS))
	set("multigpu.new_mb", median(cc.newMB))
	set("sfr.run_ms_p50", median(cc.runMS))
	set("sfr.run_mb_p50", median(cc.runMB))
	set("composite.merge_ns_per_px", median(cc.mergeNsPerPx))

	nsPerFrag, frags := rasterReplay(w.set.frameList(), multigpu.DefaultConfig().Raster, tr)
	set("raster.ns_per_frag", nsPerFrag)
	set("raster.frags", float64(frags))
	fw, fh := w.set.largestFrame()
	set("framebuffer.new_clear_us", framebufferReplay(fw, fh, tr))
	planUS, err := planReplay(w.plans, fh, tr)
	set("plan.build_us", planUS)
	return err
}

// metricsFor returns the metric list of an untraced or traced run.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func fmtFloats(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.3f", s)
}
