package experiments

import (
	"fmt"
	"strings"

	"chopin/internal/composite/plan"
	"chopin/internal/interconnect"
	"chopin/internal/sfr"
	"chopin/internal/stats"
)

// Digest is the observable outcome of one simulation, used to check that
// runs are reproducible: the same (scheme, benchmark, configuration, trace)
// must always yield the same cycle count and the same final image.
type Digest struct {
	Scheme string
	Bench  string
	GPUs   int
	// Cfg labels a non-default configuration axis (e.g. "ring/binary-swap"
	// on the scale-out matrix); empty for the default crossbar/direct-send.
	Cfg    string
	Cycles int64
	Image  uint64
}

func (d Digest) key() string {
	k := fmt.Sprintf("%s/%s/n=%d", d.Scheme, d.Bench, d.GPUs)
	if d.Cfg != "" {
		k += "/" + d.Cfg
	}
	return k
}

// cell is one simulation configuration of the self-check, run over every
// benchmark in the options. topo and alg at their zero values are the
// default crossbar/direct-send path, whose digests carry no Cfg label.
type cell struct {
	scheme sfr.Scheme
	gpus   int
	topo   interconnect.TopologyKind
	alg    plan.Algorithm
}

// label renders the cell's Cfg axis label: empty on the default path,
// "<topology>/<algorithm>" off it.
func (c cell) label() string {
	if c.topo == interconnect.TopoCrossbar && c.alg == plan.AlgDirectSend {
		return ""
	}
	return fmt.Sprintf("%s/%s", c.topo, c.alg)
}

// workerCells is the scheme × GPU-count grid of the worker axis.
var workerCells = []cell{
	{scheme: sfr.Duplication{}, gpus: 2},
	{scheme: sfr.GPUpd{}, gpus: 2},
	{scheme: sfr.CHOPIN{}, gpus: 2},
	{scheme: sfr.SortMiddle{}, gpus: 2},
	{scheme: sfr.Duplication{}, gpus: 8},
	{scheme: sfr.GPUpd{}, gpus: 8},
	{scheme: sfr.CHOPIN{}, gpus: 8},
	{scheme: sfr.SortMiddle{}, gpus: 8},
}

// engineCells is the engine axis: five scheme rows covering every
// scheduler path (including the round-robin CHOPIN variant), all at 4 GPUs
// — a count distinct from the worker axis's 2 and 8, so a digest key
// identifies which axis produced it.
var engineCells = []cell{
	{scheme: sfr.Duplication{}, gpus: 4},
	{scheme: sfr.GPUpd{}, gpus: 4},
	{scheme: sfr.CHOPIN{}, gpus: 4},
	{scheme: sfr.CHOPIN{RoundRobin: true}, gpus: 4},
	{scheme: sfr.SortMiddle{}, gpus: 4},
}

// scaleOutCells is the topology × exchange-plan axis: CHOPIN cells off the
// default crossbar/direct-send path, at GPU counts that exercise
// multi-round plans and routed fabrics.
var scaleOutCells = []cell{
	{sfr.CHOPIN{}, 8, interconnect.TopoCrossbar, plan.AlgBinarySwap},
	{sfr.CHOPIN{}, 8, interconnect.TopoRing, plan.AlgDirectSend},
	{sfr.CHOPIN{}, 16, interconnect.TopoRing, plan.AlgAuto},
	{sfr.CHOPIN{}, 16, interconnect.TopoMesh2D, plan.AlgRadixK},
}

// runCells executes cells over every benchmark in the options and returns
// one digest per simulation, benchmark by benchmark in cell order.
func runCells(opt Options, cells []cell) ([]Digest, error) {
	opt.normalize()
	n := len(cells) * len(opt.Benchmarks)
	outs := make([]*stats.FrameStats, n)
	imgs := make([]uint64, n)
	jobs := make([]job, 0, n)
	for _, bench := range opt.Benchmarks {
		for _, c := range cells {
			cfg := opt.baseConfig()
			cfg.NumGPUs = c.gpus
			cfg.Link.Topology = c.topo
			cfg.CompAlg = c.alg
			i := len(jobs)
			jobs = append(jobs, job{bench: bench, scheme: c.scheme, cfg: cfg, out: &outs[i], img: &imgs[i]})
		}
	}
	if err := runJobs(&opt, jobs); err != nil {
		return nil, err
	}
	digests := make([]Digest, n)
	for i, st := range outs {
		digests[i] = Digest{
			Scheme: jobs[i].scheme.Name(),
			Bench:  jobs[i].bench,
			GPUs:   jobs[i].cfg.NumGPUs,
			Cfg:    cells[i%len(cells)].label(),
			Cycles: int64(st.TotalCycles),
			Image:  imgs[i],
		}
	}
	return digests, nil
}

// diffDigests compares two digest slices run-by-run and describes every
// cycle-count or image mismatch, labelling the two sides a and b.
func diffDigests(seq, par []Digest, a, b string) []string {
	var diffs []string
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Cycles != p.Cycles {
			diffs = append(diffs, fmt.Sprintf("%s: cycles %d (%s) vs %d (%s)", s.key(), s.Cycles, a, p.Cycles, b))
		}
		if s.Image != p.Image {
			diffs = append(diffs, fmt.Sprintf("%s: image %016x (%s) vs %016x (%s)", s.key(), s.Image, a, p.Image, b))
		}
	}
	return diffs
}

// CheckDeterminism runs the self-check along three independent axes and
// compares cycle counts and image checksums run-by-run.
//
// Axis 1 — concurrent simulations: the scheme × GPU-count matrix runs once
// strictly sequentially (Workers=1) and once with the options' full
// parallelism. A difference means concurrent simulations influence each
// other (shared mutable state, map-iteration order leaking into event
// order, ...).
//
// Axis 2 — intra-simulation fan-out: the engine matrix (five scheme rows)
// runs once with inline rasterization (EngineWorkers=0) and once with the
// per-GPU rasterization of each draw batch fanned across goroutines
// (EngineWorkers>1, Engine.Fanout). A difference means fanned-out work
// leaked shared state or its completion order into the simulation.
//
// Axis 3 — the scale-out configuration space: the topology × exchange-plan
// matrix (routed fabrics, multi-round plans) runs sequentially and with full
// parallelism, extending axis 1's guarantee off the default
// crossbar/direct-send path.
//
// It returns the digests of the sequential passes of all axes and an
// error describing each mismatch.
func CheckDeterminism(opt Options) ([]Digest, error) {
	opt.normalize()
	engWorkers := opt.EngineWorkers
	if engWorkers < 2 {
		engWorkers = 4
	}
	seq, inlineEng, fanEng := opt, opt, opt
	seq.Workers = 1
	inlineEng.EngineWorkers = 0
	fanEng.EngineWorkers = engWorkers
	axes := []struct {
		name   string
		cells  []cell
		a, b   Options
		la, lb string
	}{
		{"worker", workerCells, seq, opt, "sequential", "parallel"},
		{"engine", engineCells, inlineEng, fanEng, "sequential engine", fmt.Sprintf("engine-workers=%d", engWorkers)},
		{"scale-out", scaleOutCells, seq, opt, "sequential", "parallel"},
	}
	var all []Digest
	var diffs []string
	for _, ax := range axes {
		a, err := runCells(ax.a, ax.cells)
		if err != nil {
			return all, fmt.Errorf("%s axis, %s pass: %w", ax.name, ax.la, err)
		}
		b, err := runCells(ax.b, ax.cells)
		if err != nil {
			return all, fmt.Errorf("%s axis, %s pass: %w", ax.name, ax.lb, err)
		}
		all = append(all, a...)
		diffs = append(diffs, diffDigests(a, b, ax.la, ax.lb)...)
	}
	if len(diffs) > 0 {
		return all, fmt.Errorf("experiments: %d determinism violation(s):\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
	return all, nil
}
