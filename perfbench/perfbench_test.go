package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"chopin/internal/multigpu"
	"chopin/internal/sfr"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames pins the metric names to the allowed alphabet and keeps
// them, with their units, in step with BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(list string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", list, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					list, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestTailPercentile checks the tail rule: the percentile is the highest
// whole one that leaves at least 10 samples beyond its nearest-rank value.
func TestTailPercentile(t *testing.T) {
	for n := 1; n <= 1000; n++ {
		p := tailPercentile(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1) // value == rank
		}
		if n < 20 {
			if p != 50 {
				t.Errorf("n=%d: percentile %d, want the median fallback", n, p)
			}
			continue
		}
		if beyond := n - int(quantile(xs, float64(p)/100)); beyond < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it, want >= 10", n, p, beyond)
		}
		if p < 100 {
			if beyond := n - int(quantile(xs, float64(p+1)/100)); beyond >= 10 {
				t.Errorf("n=%d: p%d is not the highest; p%d still leaves %d beyond", n, p, p+1, beyond)
			}
		}
	}
	// The committed workloads' guaranteed samples.
	for name, want := range map[string][2]int{"frame8": {64, 84}, "scaleout64": {80, 87}, "sweep": {360, 97}} {
		w, err := newWorkload(name, 0, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if n := w.minPasses * w.simsPerPass(); n != want[0] || w.tailPct() != want[1] {
			t.Errorf("%s: tail over %d sims is p%d, want p%d over %d", name, n, w.tailPct(), want[1], want[0])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.84, 5}, {1, 5},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// p·n that rounds just above a whole rank keeps that rank: 0.84·100.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := quantile(hundred, 0.84); got != 84 {
		t.Errorf("p84 of 1..100 = %v, want 84", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no values = %v", got)
	}
}

// TestSimDurations checks how sweep simulations are timed from spawn and
// completion events with two workers: job 2 waits for the first
// completion, and a variant's label finds the job running its scheme.
func TestSimDurations(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spawns := []jobEvent{
		{"Duplication", "cod2", 2, at(0)},
		{"GPUpd", "cod2", 2, at(1)},
		{"CHOPIN", "cod2", 2, at(2)}, // waits for a slot until 50
		// A later batch: spawned after every earlier completion.
		{"CHOPIN", "wolf", 4, at(200)},
	}
	done := []jobEvent{
		{"IdealGPUpd", "cod2", 2, at(50)},
		{"Duplication", "cod2", 2, at(80)},
		{"CHOPIN+CompSched", "cod2", 2, at(150)},
		{"IdealCHOPIN", "wolf", 4, at(260)},
	}
	want := []float64{49, 80, 100, 60}
	if got := simDurations(spawns, done, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("durations %v, want %v", got, want)
	}
}

// tinyWorkload is one 2-GPU CHOPIN simulation of a small wolf trace.
func tinyWorkload() *workload {
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = 2
	cfg.GroupThreshold = scaledThreshold(cfg, 0.02)
	return &workload{
		name: "tiny",
		set: &simSet{scale: 0.02, benches: []string{"wolf"},
			specs: []simSpec{{label: "wolf/chopin", bench: "wolf", scheme: sfr.CHOPIN{}, cfg: cfg}}},
		minPasses: 1,
		workers:   1,
	}
}

func tinyOpts(t *testing.T, traced bool) runOpts {
	return runOpts{seconds: 0, traced: traced, out: t.TempDir()}
}

// TestCorruptDigestFails checks that a cycles digest that disagrees with
// the simulation fails the run: failed_frac rises and the exit code is 1,
// while the true digest passes.
func TestCorruptDigestFails(t *testing.T) {
	w := tinyWorkload()
	res, first, err := measure(w, 0, tinyOpts(t, false), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.exitCode() != 0 {
		t.Fatalf("undigested run: %d failed, exit %d", res.Failed, res.exitCode())
	}
	good, err := loadDigest(formatDigest(first.sims))
	if err != nil {
		t.Fatal(err)
	}

	w.set.digest = good
	if res, _, err = measure(w, 0, tinyOpts(t, false), io.Discard); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.exitCode() != 0 {
		t.Fatalf("true digest: correct=%v failed=%d exit=%d", res.Correct, res.Failed, res.exitCode())
	}

	bad := map[string]int64{}
	for k, v := range good {
		bad[k] = v + 1
	}
	w.set.digest = bad
	if res, _, err = measure(w, 0, tinyOpts(t, true), io.Discard); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.exitCode() != 1 {
		t.Fatalf("corrupt digest: correct=%v failed=%d exit=%d", res.Correct, res.Failed, res.exitCode())
	}
	if f := res.Metrics["failed_frac"].Value; f <= 0 {
		t.Errorf("corrupt digest: failed_frac = %v, want > 0", f)
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run reports every
// per-layer metric and an untraced run exactly the end-to-end ones.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res, _, err := measure(tinyWorkload(), 0, tinyOpts(t, traced), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		defs := metricsFor(traced)
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, d.name, m.Unit)
			}
		}
		if traced && res.Metrics["raster.frags"].Value <= 0 {
			t.Errorf("traced run replayed no fragments")
		}
	}
}

// TestResultRoundTrip checks the final line survives its JSON form and has
// exactly the keys the result format names.
func TestResultRoundTrip(t *testing.T) {
	in := &result{Correct: true, Attempted: 64, Failed: 0, Metrics: map[string]metric{
		"wall_s":   {Value: 12.980892983, Unit: "s"},
		"alloc_mb": {Value: 9267.931448, Unit: "MB"},
	}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out result
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Errorf("round trip: got %+v, want %+v", out, *in)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result keys = %s", b)
	}
	if bytes.Contains(b, []byte("\n")) {
		t.Errorf("result spans lines: %s", b)
	}
}

func TestPackageGroups(t *testing.T) {
	for sym, want := range map[string]string{
		"chopin/internal/raster.(*Renderer).rasterTri":   "raster",
		"chopin/internal/composite.DepthMergeRegion":     "composite",
		"chopin/internal/composite/plan.Check":           "",
		"runtime.memclrNoHeapPointers":                   "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "runtime",
		"os/exec.(*Cmd).Run":                             "",
		"chopin/internal/exec.(*Runtime).Barrier.func1":  "exec",
		"chopin/internal/framebuffer.(*Buffer).Clear":    "framebuffer",
		"chopin/internal/interconnect.(*Fabric).Send":    "interconnect",
		"chopin/internal/sim.(*Engine).Run":              "sim",
		"chopin/internal/vecmath.Mat4.MulVec4":           "vecmath",
		"chopin/internal/sfr.(*planExec).snapshot":       "sfr",
		"chopin/internal/gpu.(*GPU).CommitDraw":          "gpu",
		"chopin/internal/multigpu.(*System).SubmitDraws": "",
	} {
		if got := packageGroup(packageOf(sym)); got != want {
			t.Errorf("%s: group %q, want %q", sym, got, want)
		}
	}
	if !strings.HasSuffix(packageOf("chopin/internal/raster.New"), "/raster") {
		t.Errorf("packageOf(raster.New) = %q", packageOf("chopin/internal/raster.New"))
	}
}

// TestProfileGroups checks the CPU-profile attribution on a real profile:
// a busy loop in this package must dominate the self time pprof reports.
func TestProfileGroups(t *testing.T) {
	var p profile
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += spin(1e5)
	}
	if err := p.stop(filepath.Join(t.TempDir(), "cpu.pprof")); err != nil {
		t.Fatal(err)
	}
	self, err := p.selfMS()
	if err != nil {
		t.Fatal(err)
	}
	var mine, total float64
	for fn, v := range self {
		total += v
		if packageOf(fn) == "chopin/perfbench" {
			mine += v
		}
	}
	if total == 0 {
		t.Fatalf("no samples (x=%v)", x)
	}
	if mine*2 < total {
		t.Errorf("busy loop has %v of %v ms", mine, total)
	}
	fr, err := p.groupFractions()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != len(profiledPackages) {
		t.Errorf("groups %v, want one per profiled package", fr)
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 1250ms, 100% of 1250ms total
      flat  flat%   sum%        cum   cum%
    1000ms 80.00% 80.00%     1000ms 80.00%  chopin/internal/raster.(*Renderer).rasterTri
     200ms 16.00% 96.00%      200ms 16.00%  chopin/internal/vecmath.Mat4.MulVec4 (inline)
      50ms  4.00%   100%       50ms  4.00%  runtime.memclrNoHeapPointers
         0     0%   100%     1250ms   100%  main.main
`)
	self, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"chopin/internal/raster.(*Renderer).rasterTri": 1000,
		"chopin/internal/vecmath.Mat4.MulVec4":         200,
		"runtime.memclrNoHeapPointers":                 50,
		"main.main":                                    0,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("parseTop = %v, want %v", self, want)
	}
}

//go:noinline
func spin(n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Sqrt(float64(i))
	}
	return s
}
