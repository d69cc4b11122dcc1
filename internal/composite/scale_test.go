package composite

import (
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// TestEveryCountMatchesReferenceTo64 is the exhaustive scale sweep: for
// every GPU count from 2 through 64, every plan.For schedule that supports
// the count must reproduce the sequential depth reference pixel-exactly
// under Apply. This is the library-level guarantee the 64-GPU plan
// executor rests on.
func TestEveryCountMatchesReferenceTo64(t *testing.T) {
	const w, h = 48, 37 // off tile boundaries on purpose
	for n := 2; n <= 64; n++ {
		cmp := colorspace.CmpLess
		if n%2 == 1 {
			cmp = colorspace.CmpLessEqual
		}
		subs := randomSubImages(t, n, w, h, int64(9000+n))
		ref := DepthReference(subs, cmp)
		for _, p := range schedulePlans(t, n, h, 2, 3, 4, 8) {
			if got, _, err := Apply(p, subs, cmp); err != nil {
				t.Errorf("n=%d: %s: %v", n, planName(p), err)
			} else if !got.Equal(ref, 0) {
				t.Errorf("n=%d: %s differs from reference", n, planName(p))
			}
		}
	}
}

// TestApplyRepairedPlansMatchReference extends pixel-exactness to plan
// repair: for every GPU count 2..64, every plan.For schedule the count
// supports, every single-GPU failure and every round boundary, the
// plan.Repair output applied to the sub-images must equal the sequential
// depth reference over the survivors. The dead GPU's sub-image is left in
// place, so a repair that still read it would show up as a wrong image.
func TestApplyRepairedPlansMatchReference(t *testing.T) {
	const w, h = 3, 70 // two tile rows: direct-send ownership interleaves
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for n := 2; n <= 64; n += stride {
		subs := randomSubImages(t, n, w, h, int64(7000+n))
		plans := schedulePlans(t, n, h, plan.DefaultK(n))
		for failed := 0; failed < n; failed++ {
			live := make([]bool, n)
			survivors := make([]*framebuffer.Buffer, 0, n-1)
			for g := range live {
				live[g] = g != failed
				if live[g] {
					survivors = append(survivors, subs[g])
				}
			}
			ref := DepthReference(survivors, colorspace.CmpLess)
			for _, src := range plans {
				for boundary := 0; boundary <= len(src.Rounds); boundary++ {
					rp, err := plan.Repair(src, live, boundary)
					if err != nil {
						t.Fatalf("n=%d/%s/fail=%d/round=%d: repair: %v", n, planName(src), failed, boundary, err)
					}
					got, _, err := Apply(rp, subs, colorspace.CmpLess)
					if err != nil {
						t.Fatalf("n=%d/%s/fail=%d/round=%d: apply: %v", n, planName(src), failed, boundary, err)
					}
					if !got.Equal(ref, 0) {
						t.Fatalf("n=%d/%s/fail=%d/round=%d: repaired plan differs from the survivors' reference in %d pixels",
							n, planName(src), failed, boundary, got.DiffCount(ref, 0))
					}
				}
			}
		}
	}
}
