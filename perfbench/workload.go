package main

import (
	"embed"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"chopin/internal/composite/plan"
	"chopin/internal/experiments"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/obs"
	"chopin/internal/runrec"
	"chopin/internal/sfr"
	"chopin/internal/trace"
)

//go:embed testdata
var testdata embed.FS

// workload is one benchmark workload: its traces and oracle (set), what a
// timed pass runs, and the inputs of its layer replays.
type workload struct {
	name string
	set  *simSet
	// sweep is non-nil for the experiment sweep; a pass then runs it
	// instead of set.specs, and set.specs become the traced run's
	// simulation replay.
	sweep *sweep
	// minPasses is the number of passes every run makes, whatever the time
	// budget; the tail percentile is fixed by this guaranteed sample.
	minPasses int
	// workers is the number of goroutines the timed phase may keep busy.
	workers int
	// plans are the exchange plans the workload's composition builds.
	plans []planSpec
}

// planSpec is one plan.For input.
type planSpec struct {
	alg      plan.Algorithm
	n        int
	diameter int
}

// simsPerPass is the number of simulations one timed pass runs.
func (w *workload) simsPerPass() int {
	if w.sweep != nil {
		return w.sweep.sims
	}
	return len(w.set.specs)
}

// tailSample is the number of simulations every untraced run is
// guaranteed to take: minPasses passes of simsPerPass.
func (w *workload) tailSample() int { return w.minPasses * w.simsPerPass() }

// tailPct is the workload's fixed tail percentile: the highest whole
// percentile that leaves at least 10 simulations beyond it in the
// guaranteed sample.
func (w *workload) tailPct() int { return tailPercentile(w.tailSample()) }

// warmUp runs once, before the timed set-ups. For the sweep it fills the
// experiments package's process-wide trace cache, so every timed sweep
// pass starts from the same warm cache. The cache holds the same three
// traces that every timed set-up generates, so set-up time still counts
// their generation.
func (w *workload) warmUp(tr *tracer) error {
	if w.sweep == nil {
		return nil
	}
	c := tr.start()
	_, err := experiments.Run("tab3", experiments.Options{Scale: w.sweep.scale, Benchmarks: w.sweep.benches})
	tr.end("experiments.Run tab3", c)
	return err
}

// setup runs one repetition of the workload's set-up and returns the time
// spent generating traces.
func (w *workload) setup(seed int64, tr *tracer) (float64, error) {
	if w.sweep != nil {
		seed = 0 // the sweep runs the fixed Table III traces
	}
	return w.set.setup(seed, tr)
}

// pass runs one timed pass.
func (w *workload) pass(tr *tracer) passResult {
	if w.sweep != nil {
		return w.sweep.run(tr)
	}
	return w.set.run(tr)
}

// sweep is the fig19 experiment run through the experiments package with
// a run record attached, as chopinsim -exp fig19 -runrec does.
type sweep struct {
	scale   float64
	benches []string
	workers int
	sims    int
	// table is the expected experiment output; empty skips the check.
	table      string
	recordPath string
	// lastTable is the most recent pass's output, recorded by --update.
	lastTable string
}

func (s *sweep) run(tr *tracer) passResult {
	var p passResult
	rec := runrec.NewRecorder(runrec.Meta{Tool: "perfbench", GitRev: "unknown", Scale: s.scale,
		Benchmarks: s.benches, Experiments: []string{"fig19"}})
	var (
		mu     sync.Mutex
		spawns []jobEvent
		done   []jobEvent
	)
	opt := experiments.Options{
		Scale:      s.scale,
		Benchmarks: s.benches,
		Workers:    s.workers,
		Record:     rec,
		// Trace is consulted once per job, in spawn order, just before the
		// job waits for a free worker; returning nil leaves it untraced.
		Trace: func(scheme, bench string, gpus int) *obs.Tracer {
			mu.Lock()
			spawns = append(spawns, jobEvent{scheme, bench, gpus, time.Now()})
			mu.Unlock()
			return nil
		},
		Progress: func(e experiments.ProgressEvent) {
			mu.Lock()
			done = append(done, jobEvent{e.Scheme, e.Bench, e.GPUs, time.Now()})
			mu.Unlock()
		},
	}
	c := tr.start()
	res, err := experiments.Run("fig19", opt)
	tr.end("experiments.Run fig19", c)
	if res != nil {
		s.lastTable = res.String()
	}
	p.simMS = simDurations(spawns, done, s.workers)
	p.attempted = max(len(done), 1)
	switch {
	case err != nil:
		p.failed = p.attempted
		p.problems = append(p.problems, "fig19: "+err.Error())
	case s.table != "" && res.String() != s.table:
		p.failed = p.attempted
		p.problems = append(p.problems, "fig19: table differs from testdata/sweep-fig19.txt:\n"+res.String())
	case len(done) != s.sims:
		p.failed = p.attempted
		p.problems = append(p.problems, fmt.Sprintf("fig19: %d simulations, want %d", len(done), s.sims))
	}

	c = tr.start()
	r := rec.Record()
	werr := r.WriteFile(s.recordPath)
	d, _ := tr.end("runrec.Record.Write", c)
	p.writeMS = ms(d)
	if werr != nil {
		p.fail("run record: %v", werr)
	}
	for _, row := range r.Rows {
		p.cycles += row.Metrics["total_cycles"]
		p.compBytes += row.Metrics["bytes_composition"]
	}
	return p
}

// jobEvent is a sweep job's spawn or completion: the scheme (its name at
// spawn, its run-record label at completion), the trace and the GPU count.
type jobEvent struct {
	scheme, bench string
	gpus          int
	at            time.Time
}

// simDurations returns the host time of each sweep simulation in ms. The
// experiments package runs jobs in spawn order on a pool of workers slots:
// job k starts when it is spawned or, past the first workers jobs, when
// the (k-workers+1)-th completion frees a slot, whichever is later.
// Batches run one after another, so this holds across them too. A
// completion belongs to the earliest-started running job with its trace
// and GPU count whose scheme name its label contains ("IdealCHOPIN" runs
// the CHOPIN scheme).
func simDurations(spawns, done []jobEvent, workers int) []float64 {
	start := make([]time.Time, len(spawns))
	for k, e := range spawns {
		start[k] = e.at
		if j := k - workers; j >= 0 && j < len(done) && done[j].at.After(e.at) {
			start[k] = done[j].at
		}
	}
	finished := make([]bool, len(spawns))
	var out []float64
	for _, d := range done {
		for k, e := range spawns {
			if !finished[k] && !start[k].After(d.at) && e.bench == d.bench && e.gpus == d.gpus &&
				strings.Contains(d.scheme, e.scheme) {
				finished[k] = true
				out = append(out, ms(d.at.Sub(start[k])))
				break
			}
		}
	}
	return out
}

// loadDigest parses a cycles digest: one "label cycles" pair per line.
func loadDigest(text string) (map[string]int64, error) {
	d := map[string]int64{}
	for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("digest line %d: want \"label cycles\", got %q", i+1, line)
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("digest line %d: %v", i+1, err)
		}
		d[f[0]] = v
	}
	return d, nil
}

// formatDigest renders the cycles of one pass in loadDigest's format.
func formatDigest(sims []simOutcome) string {
	var b strings.Builder
	for _, o := range sims {
		if o.stats != nil {
			fmt.Fprintf(&b, "%s %d\n", o.spec.label, o.stats.TotalCycles)
		}
	}
	return b.String()
}

// workloadNames lists the benchmark's workloads.
var workloadNames = []string{"frame8", "scaleout64", "sweep"}

// newWorkload builds a named workload. At seed 0 the committed oracles
// (cycles digest, sweep table) are loaded unless update is set; out is the
// directory run artifacts are written to.
func newWorkload(name string, seed int64, update bool, out string) (*workload, error) {
	var w *workload
	switch name {
	case "frame8":
		const scale = 0.25
		w = &workload{
			name:      name,
			set:       &simSet{scale: scale, benches: trace.Names(), specs: frame8Specs(scale, nproc())},
			minPasses: 2,
			workers:   nproc(),
			plans:     []planSpec{{plan.AlgDirectSend, 8, 1}},
		}
	case "scaleout64":
		const scale = 0.1
		benches := []string{"cod2", "wolf"}
		w = &workload{
			name:      name,
			set:       &simSet{scale: scale, benches: benches, specs: scaleout64Specs(scale, benches)},
			minPasses: 5,
			workers:   1,
		}
		for _, n := range []int{32, 64} {
			for _, k := range []interconnect.TopologyKind{interconnect.TopoMesh2D, interconnect.TopoRing} {
				topo, err := interconnect.NewTopology(k, n)
				if err != nil {
					return nil, err
				}
				for _, alg := range []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK} {
					w.plans = append(w.plans, planSpec{alg, n, topo.Diameter()})
				}
			}
		}
	case "sweep":
		const scale = 0.1
		benches := []string{"cod2", "grid", "wolf"}
		sw := &sweep{scale: scale, benches: benches, workers: nproc(),
			sims: 4 * 3 * 6, recordPath: filepath.Join(out, "sweep-fig19.runrec.json")}
		w = &workload{
			name:      name,
			set:       &simSet{scale: scale, benches: benches, specs: sweepReplaySpecs(scale, benches)},
			sweep:     sw,
			minPasses: 5,
			workers:   nproc(),
		}
		for _, n := range []int{2, 4, 8, 16} {
			w.plans = append(w.plans, planSpec{plan.AlgDirectSend, n, 1})
		}
		if !update {
			b, err := testdata.ReadFile("testdata/sweep-fig19.txt")
			if err != nil {
				return nil, err
			}
			sw.table = string(b)
		}
		// The sweep's inputs are the fixed Table III traces whatever the
		// seed, so its oracle holds at every seed.
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if seed == 0 && !update {
		b, err := testdata.ReadFile("testdata/" + name + ".cycles")
		if err != nil {
			return nil, err
		}
		if w.set.digest, err = loadDigest(string(b)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// sweepReplaySpecs are the sweep's own 8-GPU Duplication and CHOPIN
// simulations, replayed one at a time in the traced run so the per-call
// layer costs of the sweep can be timed from outside the experiments
// package.
func sweepReplaySpecs(scale float64, benches []string) []simSpec {
	var specs []simSpec
	for _, b := range benches {
		for _, sc := range []sfr.Scheme{sfr.Duplication{}, sfr.CHOPIN{}} {
			cfg := multigpu.DefaultConfig()
			cfg.GroupThreshold = scaledThreshold(cfg, scale)
			specs = append(specs, simSpec{label: b + "/" + sc.Name(), bench: b, scheme: sc, cfg: cfg})
		}
	}
	return specs
}
