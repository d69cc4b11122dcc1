package main

import (
	"fmt"
	"runtime"

	"chopin/internal/composite/plan"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/sfr"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

// simSpec is one simulation of a workload: a scheme on a configured system
// over one benchmark trace. label is its stable ID in the cycles digest.
type simSpec struct {
	label  string
	bench  string
	scheme sfr.Scheme
	cfg    multigpu.Config
}

// simOutcome is one checked simulation.
type simOutcome struct {
	spec  *simSpec
	newMS float64
	runMS float64
	newMB float64 // traced passes only
	runMB float64 // traced passes only
	stats *stats.FrameStats
	err   error // simulation error or oracle mismatch
}

func (o simOutcome) simMS() float64 { return o.newMS + o.runMS }

// passResult is what one timed pass of a workload produced.
type passResult struct {
	sims      []simOutcome // simulations run one at a time (frame8, scaleout64)
	simMS     []float64    // per-simulation host time
	attempted int
	failed    int
	problems  []string
	cycles    float64 // summed TotalCycles
	compBytes float64 // summed composition traffic
	writeMS   float64 // run-record write (sweep)
	last      *multigpu.System
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// simSet is a list of simulations over a set of benchmark traces, run one
// at a time and each checked against the single-GPU reference image (and,
// at the default seed, against the committed cycles digest).
type simSet struct {
	scale   float64
	benches []string
	specs   []simSpec
	// frames and refs are built by setup: the traces and the checksum of
	// each trace's reference image for render target 0.
	frames map[string]*primitive.Frame
	refs   map[string]uint64
	// digest maps a spec label to its expected cycles; nil skips the check.
	digest map[string]int64
}

// traceSeed derives a benchmark's generator seed from the workload seed.
// Seed 0 keeps the Table III seed, so the default run reproduces the
// simulator's own traces.
func traceSeed(base, seed int64) int64 {
	if seed == 0 {
		return base
	}
	return base ^ int64(uint64(seed)*0x9e3779b97f4a7c15)
}

// setup generates every trace and its reference-image oracle. It returns
// the time spent in trace.Generate alone.
func (s *simSet) setup(seed int64, tr *tracer) (genMS float64, err error) {
	s.frames = map[string]*primitive.Frame{}
	s.refs = map[string]uint64{}
	for _, name := range s.benches {
		b, err := trace.ByName(name)
		if err != nil {
			return 0, err
		}
		b.Seed = traceSeed(b.Seed, seed)
		c := tr.start()
		fr := trace.Generate(b, s.scale)
		d, _ := tr.end("trace.Generate", c)
		genMS += ms(d)
		c = tr.start()
		s.refs[name] = sfr.ReferenceImages(fr, multigpu.DefaultConfig().Raster)[0].Checksum()
		tr.end("oracle.ReferenceImages", c)
		s.frames[name] = fr
	}
	return genMS, nil
}

// run simulates every spec once, in order, and checks each output.
func (s *simSet) run(tr *tracer) passResult {
	var p passResult
	for i := range s.specs {
		o, sys := s.runOne(&s.specs[i], tr)
		p.sims = append(p.sims, o)
		p.simMS = append(p.simMS, o.simMS())
		p.attempted++
		if o.err != nil {
			p.fail("%s: %v", o.spec.label, o.err)
			continue
		}
		if i == len(s.specs)-1 {
			p.last = sys
		}
		p.cycles += float64(o.stats.TotalCycles)
		p.compBytes += float64(o.stats.CompositionBytes)
	}
	return p
}

// runOne runs and checks one simulation. It returns the finished system
// apart from the outcome, so a pass keeps only its last one alive.
func (s *simSet) runOne(spec *simSpec, tr *tracer) (o simOutcome, sys *multigpu.System) {
	o.spec = spec
	whole := tr.start()
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v", r)
		}
		tr.end("simulation "+spec.label, whole)
	}()
	fr := s.frames[spec.bench]
	c := tr.start()
	sys, err := multigpu.New(spec.cfg, fr.Width, fr.Height)
	d, mb := tr.end("multigpu.New", c)
	o.newMS, o.newMB = ms(d), mb
	if err != nil {
		o.err = err
		return o, nil
	}
	c = tr.start()
	st, err := spec.scheme.Run(sys, fr)
	d, mb = tr.end("Scheme.Run "+spec.scheme.Name(), c)
	o.runMS, o.runMB = ms(d), mb
	o.stats = st
	if err != nil {
		o.err = err
		return o, nil
	}
	c = tr.start()
	o.err = s.check(spec, sys, st)
	tr.end("oracle.Check", c)
	return o, sys
}

// check is the per-simulation oracle: the assembled display image must
// equal the reference image, and with a digest loaded the simulated cycles
// must equal the recorded ones.
func (s *simSet) check(spec *simSpec, sys *multigpu.System, st *stats.FrameStats) error {
	if got, want := sys.AssembleImage(0).Checksum(), s.refs[spec.bench]; got != want {
		return fmt.Errorf("image checksum %016x, reference %016x", got, want)
	}
	if s.digest != nil {
		want, ok := s.digest[spec.label]
		if !ok {
			return fmt.Errorf("no digest entry")
		}
		if int64(st.TotalCycles) != want {
			return fmt.Errorf("%d cycles, digest has %d", st.TotalCycles, want)
		}
	}
	return nil
}

// largestFrame returns the dimensions of the set's largest trace.
func (s *simSet) largestFrame() (w, h int) {
	for _, fr := range s.frames {
		if fr.Width*fr.Height > w*h {
			w, h = fr.Width, fr.Height
		}
	}
	return w, h
}

// frameList returns the traces in the set's benchmark order.
func (s *simSet) frameList() []*primitive.Frame {
	out := make([]*primitive.Frame, len(s.benches))
	for i, n := range s.benches {
		out[i] = s.frames[n]
	}
	return out
}

// scaledThreshold is the experiments package's group-threshold scaling: the
// Table II 4096-triangle threshold shrunk with the trace.
func scaledThreshold(cfg multigpu.Config, scale float64) int {
	return max(16, int(float64(cfg.GroupThreshold)*scale))
}

// frame8Specs is the paper's Table II system at 8 GPUs (crossbar,
// direct-send composition) running the four schemes over all eight
// Table III traces.
func frame8Specs(scale float64, engineWorkers int) []simSpec {
	schemes := []struct {
		name string
		s    sfr.Scheme
	}{
		{"duplication", sfr.Duplication{}},
		{"gpupd", sfr.GPUpd{}},
		{"sort-middle", sfr.SortMiddle{}},
		{"chopin", sfr.CHOPIN{}},
	}
	var specs []simSpec
	for _, b := range trace.Names() {
		for _, sc := range schemes {
			cfg := multigpu.DefaultConfig()
			cfg.GroupThreshold = scaledThreshold(cfg, scale)
			cfg.EngineWorkers = engineWorkers
			specs = append(specs, simSpec{label: b + "/" + sc.name, bench: b, scheme: sc.s, cfg: cfg})
		}
	}
	return specs
}

// scaleout64Specs is CHOPIN past the paper's 16 GPUs: 32 and 64 GPUs on
// routed fabrics under the swap-style exchange plans.
func scaleout64Specs(scale float64, benches []string) []simSpec {
	var specs []simSpec
	for _, n := range []int{32, 64} {
		for _, topo := range []interconnect.TopologyKind{interconnect.TopoMesh2D, interconnect.TopoRing} {
			for _, alg := range []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK} {
				for _, b := range benches {
					cfg := multigpu.DefaultConfig()
					cfg.GroupThreshold = scaledThreshold(cfg, scale)
					cfg.NumGPUs = n
					cfg.Link.Topology = topo
					cfg.CompAlg = alg
					specs = append(specs, simSpec{
						label:  fmt.Sprintf("n%d/%s/%s/%s", n, topo, alg, b),
						bench:  b,
						scheme: sfr.CHOPIN{},
						cfg:    cfg,
					})
				}
			}
		}
	}
	return specs
}

// nproc is the goroutine budget of every workload.
func nproc() int { return runtime.NumCPU() }
