package sfr

import (
	"runtime"
	"testing"

	"chopin/internal/composite/plan"
	"chopin/internal/core"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
)

// planConfig returns a test configuration running the given exchange plan
// over the given fabric topology.
func planConfig(n int, alg plan.Algorithm, topo interconnect.TopologyKind) multigpu.Config {
	cfg := testConfig(n)
	cfg.CompAlg = alg
	cfg.Link.Topology = topo
	return cfg
}

// TestPlanPathMatchesReferenceImage is the master correctness test for the
// plan executor: every exchange plan must assemble exactly the image the
// paper's direct send does, at group sizes that exercise power-of-two,
// composite, and prime factorisations.
func TestPlanPathMatchesReferenceImage(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(4).Raster)[0]
	cases := []struct {
		n    int
		algs []plan.Algorithm
	}{
		{4, []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK, plan.AlgMixedRadix, plan.AlgAuto}},
		{6, []plan.Algorithm{plan.AlgMixedRadix, plan.AlgAuto}},
		{8, []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK, plan.AlgMixedRadix, plan.AlgAuto}},
	}
	for _, c := range cases {
		for _, alg := range c.algs {
			cfg := planConfig(c.n, alg, interconnect.TopoCrossbar)
			sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("CHOPIN/%s n=%d: image differs from reference in %d pixels",
					alg, c.n, img.DiffCount(ref, 1e-9))
			}
		}
	}
}

// TestPlanPathOnRoutedTopologies checks the full stack — exchange plan over
// a routed fabric — still produces the reference image: timing models must
// never change pixels.
func TestPlanPathOnRoutedTopologies(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(8).Raster)[0]
	for _, topo := range []interconnect.TopologyKind{interconnect.TopoRing, interconnect.TopoMesh2D} {
		for _, alg := range []plan.Algorithm{plan.AlgDirectSend, plan.AlgBinarySwap, plan.AlgAuto} {
			cfg := planConfig(8, alg, topo)
			sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("CHOPIN/%s on %s: image differs from reference in %d pixels",
					alg, topo, img.DiffCount(ref, 1e-9))
			}
		}
	}
}

// TestPlanPathTrafficAccounted checks the plan executor's exchanges flow
// through the fabric's composition class: the stats must show nonzero
// composition traffic that matches the fabric's own ledger.
func TestPlanPathTrafficAccounted(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := planConfig(4, plan.AlgBinarySwap, interconnect.TopoCrossbar)
	sys, st := runScheme(t, CHOPIN{}, cfg, fr)
	if st.CompositionBytes == 0 {
		t.Fatal("plan path reported zero composition traffic")
	}
	if got := sys.Fabric.Stats().BytesFor(interconnect.ClassComposition); got != st.CompositionBytes {
		t.Fatalf("CompositionBytes = %d, fabric ledger = %d", st.CompositionBytes, got)
	}
}

// TestPlanPathDeterministic pins that a plan-executed run is replayable:
// identical configuration twice gives identical cycles and traffic.
func TestPlanPathDeterministic(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	run := func() (int64, int64) {
		cfg := planConfig(8, plan.AlgRadixK, interconnect.TopoMesh2D)
		_, st := runScheme(t, CHOPIN{}, cfg, fr)
		return int64(st.TotalCycles), st.CompositionBytes
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Fatalf("nondeterministic plan run: cycles %d vs %d, bytes %d vs %d", c1, c2, b1, b2)
	}
}

// TestScaleOutSmoke drives the full 64-GPU scale across every topology ×
// algorithm cell at tiny scale: the frame must complete, settle every
// event, and still assemble the reference image. This is the CI gate for
// the scale-out configuration space.
func TestScaleOutSmoke(t *testing.T) {
	fr := testFrame(t, "wolf", 0.02)
	ref := ReferenceImages(fr, testConfig(64).Raster)[0]
	topos := []interconnect.TopologyKind{interconnect.TopoCrossbar, interconnect.TopoRing, interconnect.TopoMesh2D}
	algs := []plan.Algorithm{plan.AlgDirectSend, plan.AlgBinarySwap, plan.AlgRadixK, plan.AlgAuto}
	for _, topo := range topos {
		for _, alg := range algs {
			cfg := planConfig(64, alg, topo)
			sys, st := runScheme(t, CHOPIN{}, cfg, fr)
			if st.TotalCycles <= 0 {
				t.Fatalf("CHOPIN/%s on %s: empty run", alg, topo)
			}
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("CHOPIN/%s on %s at 64 GPUs: image differs in %d pixels",
					alg, topo, img.DiffCount(ref, 1e-9))
			}
		}
	}
}

// TestPlanExecReusesWorkBuffers pins that the plan executor allocates its
// full-screen work buffers once per GPU per run, not once per GPU per opaque
// group: a binary-swap frame may allocate less than two buffers per GPU more
// than the same frame composed by direct send, which needs none.
func TestPlanExecReusesWorkBuffers(t *testing.T) {
	const n = 16
	fr := testFrame(t, "cod2", 0.04)
	opaque := 0
	for _, st := range core.Plan(fr.Draws, testConfig(n).GroupThreshold) {
		if !st.Duplicate && !st.Group.Transparent {
			opaque++
		}
	}
	if opaque < 4 {
		t.Fatalf("frame has %d accelerated opaque groups, want ≥4 for reuse to show", opaque)
	}
	heapBytes := func(alg plan.Algorithm) uint64 {
		sys, err := multigpu.New(planConfig(n, alg, interconnect.TopoCrossbar), fr.Width, fr.Height)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (CHOPIN{}).Run(sys, fr); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	direct := heapBytes(plan.AlgDirectSend)
	swap := heapBytes(plan.AlgBinarySwap)
	// One buffer: colour (4×float64), depth (float64) and stencil (uint8)
	// per pixel.
	buf := uint64(fr.Width*fr.Height) * (4*8 + 8 + 1)
	if swap <= direct || swap-direct >= 2*n*buf {
		t.Fatalf("binary-swap run allocated %d B, direct send %d B: extra %d B, want under %d B (2 × %d GPUs × %d B buffers; %d opaque groups)",
			swap, direct, int64(swap)-int64(direct), 2*n*buf, n, buf, opaque)
	}
	t.Logf("extra heap %d B = %.2f buffers per GPU over %d opaque groups", swap-direct, float64(swap-direct)/float64(n*buf), opaque)
}
