package experiments

import "testing"

// TestDeterminismAcrossWorkers runs the self-check along both axes —
// concurrent simulations (Workers) and intra-simulation rasterization
// fan-out (EngineWorkers) — and requires identical cycle counts and image
// checksums. A failure on the first axis means concurrent simulations
// influence each other; on the second, that fanned-out rasterization leaked
// shared state or completion order into the simulation. Either would
// invalidate every experiment table. Three benchmarks give the fan-out axis
// geometry with different draw counts, resolutions, and depth complexity.
func TestDeterminismAcrossWorkers(t *testing.T) {
	opt := tinyOptions()
	opt.Benchmarks = []string{"cod2", "wolf", "cry"}
	digests, err := CheckDeterminism(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) == 0 {
		t.Fatal("determinism check produced no digests")
	}
	seen := map[string]bool{}
	for _, d := range digests {
		if d.Cycles <= 0 {
			t.Errorf("%s: non-positive cycle count %d", d.key(), d.Cycles)
		}
		if seen[d.key()] {
			t.Errorf("duplicate digest %s", d.key())
		}
		seen[d.key()] = true
	}
}

// TestVerifiedExperimentRuns exercises Options.Verify end to end: an
// experiment whose every simulation carries the invariant checker must
// still complete cleanly.
func TestVerifiedExperimentRuns(t *testing.T) {
	opt := tinyOptions()
	opt.Verify = true
	res, err := Run("fig9", opt)
	if err != nil {
		t.Fatalf("verified fig9: %v", err)
	}
	if res.Table == nil || len(res.Table.String()) == 0 {
		t.Error("verified run produced no table")
	}
}
