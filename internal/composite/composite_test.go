package composite

import (
	"fmt"
	"math/rand"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// randomSubImages builds n full-screen sub-images with random opaque content
// at random depths, as if each GPU had rendered a disjoint subset of draws.
func randomSubImages(t *testing.T, n, w, h int, seed int64) []*framebuffer.Buffer {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	subs := make([]*framebuffer.Buffer, n)
	for i := range subs {
		b := framebuffer.MustNew(w, h)
		b.ClearDirty()
		// Each sub-image gets a few random rectangles of content.
		for k := 0; k < 5; k++ {
			x0, y0 := r.Intn(w), r.Intn(h)
			x1 := x0 + 1 + r.Intn(w-x0)
			y1 := y0 + 1 + r.Intn(h-y0)
			c := colorspace.Opaque(r.Float64(), r.Float64(), r.Float64())
			d := r.Float64()
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					if d < b.DepthAt(x, y) {
						b.Set(x, y, c)
						b.SetDepth(x, y, d)
					}
				}
			}
		}
		subs[i] = b
	}
	return subs
}

// randomLayers builds n translucent layers (for blend composition).
func randomLayers(n, w, h int, seed int64) []*framebuffer.Buffer {
	r := rand.New(rand.NewSource(seed))
	layers := make([]*framebuffer.Buffer, n)
	for i := range layers {
		b := framebuffer.MustNew(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if r.Float64() < 0.7 {
					b.Set(x, y, colorspace.FromStraight(r.Float64(), r.Float64(), r.Float64(), r.Float64()))
				}
			}
		}
		layers[i] = b
	}
	return layers
}

func TestDepthMergeKeepsNearer(t *testing.T) {
	a := framebuffer.MustNew(64, 64)
	b := framebuffer.MustNew(64, 64)
	red := colorspace.Opaque(1, 0, 0)
	green := colorspace.Opaque(0, 1, 0)
	a.Set(1, 1, red)
	a.SetDepth(1, 1, 0.5)
	b.Set(1, 1, green)
	b.SetDepth(1, 1, 0.3) // nearer
	DepthMergeRegion(a, b, colorspace.CmpLess, 0, a.Height(), nil)
	if a.At(1, 1) != green || a.DepthAt(1, 1) != 0.3 {
		t.Errorf("merge kept %+v at depth %v", a.At(1, 1), a.DepthAt(1, 1))
	}
	// Merging the other direction: red (0.5) loses against green (0.3).
	b2 := framebuffer.MustNew(64, 64)
	b2.Set(1, 1, red)
	b2.SetDepth(1, 1, 0.5)
	DepthMergeRegion(a, b2, colorspace.CmpLess, 0, a.Height(), nil)
	if a.At(1, 1) != green {
		t.Error("farther pixel overwrote nearer one")
	}
}

func TestDepthMergeSkipsCleanTiles(t *testing.T) {
	dst := framebuffer.MustNew(128, 128)
	src := framebuffer.MustNew(128, 128)
	src.ClearDirty()
	src.Set(1, 1, colorspace.Opaque(1, 1, 1)) // dirties tile 0 only
	src.SetDepth(1, 1, 0.1)
	px := DepthMergeRegion(dst, src, colorspace.CmpLess, 0, dst.Height(), nil)
	if px != 64*64 {
		t.Errorf("transferred %d pixels, want one tile (%d)", px, 64*64)
	}
}

func TestDepthMergeRestrictedTiles(t *testing.T) {
	dst := framebuffer.MustNew(128, 128) // 2×2 tiles
	src := framebuffer.MustNew(128, 128)
	src.Set(1, 1, colorspace.Opaque(1, 0, 0)) // tile 0
	src.SetDepth(1, 1, 0.1)
	src.Set(100, 100, colorspace.Opaque(0, 1, 0)) // tile 3
	src.SetDepth(100, 100, 0.1)
	DepthMergeRegion(dst, src, colorspace.CmpLess, 0, dst.Height(), []int{3})
	if dst.At(1, 1) == colorspace.Opaque(1, 0, 0) {
		t.Error("merged tile outside restriction")
	}
	if dst.At(100, 100) != colorspace.Opaque(0, 1, 0) {
		t.Error("restricted tile not merged")
	}
}

// TestDepthMergeRegionAllocs pins that the plan executor's per-session merge
// walks src's dirty flags in place: 0 allocs/op with tiles nil.
func TestDepthMergeRegionAllocs(t *testing.T) {
	subs := randomSubImages(t, 2, 202, 151, 3)
	dst, src := subs[0], subs[1]
	var px int
	merge := func() { px = DepthMergeRegion(dst, src, colorspace.CmpLess, 40, 130, nil) }
	if allocs := testing.AllocsPerRun(100, merge); allocs != 0 {
		t.Fatalf("DepthMergeRegion allocated %.1f allocs/op, want 0", allocs)
	}
	if want := DepthMergeRegion(dst, src, colorspace.CmpLess, 40, 130, src.DirtyTiles()); px != want || px == 0 {
		t.Errorf("merged %d pixels with tiles nil, %d with src's dirty tiles", px, want)
	}
}

// TestDepthMergeOutOfOrder is the opaque-composition property CHOPIN relies
// on (Section III-B): sub-images may be composed in ANY order.
func TestDepthMergeOutOfOrder(t *testing.T) {
	subs := randomSubImages(t, 6, 96, 96, 7)
	ref := DepthReference(subs, colorspace.CmpLess)

	perm := rand.New(rand.NewSource(8)).Perm(len(subs))
	shuffled := make([]*framebuffer.Buffer, len(subs))
	for i, p := range perm {
		shuffled[i] = subs[p]
	}
	got := DepthReference(shuffled, colorspace.CmpLess)
	if !got.Equal(ref, 0) {
		t.Errorf("out-of-order depth composition differs in %d pixels", got.DiffCount(ref, 0))
	}
}

func TestBlendMergeOverSemantics(t *testing.T) {
	back := framebuffer.MustNew(64, 64)
	front := framebuffer.MustNew(64, 64)
	back.Set(2, 2, colorspace.Opaque(1, 1, 1))             // white background layer
	front.Set(2, 2, colorspace.FromStraight(0, 0, 0, 0.5)) // 50% black glass
	BlendMerge(back, front, colorspace.BlendOver, nil)
	want := colorspace.RGBA{R: 0.5, G: 0.5, B: 0.5, A: 1}
	if got := back.At(2, 2); !got.ApproxEqual(want, 1e-12) {
		t.Errorf("blend merge = %+v, want %+v", got, want)
	}
}

// TestChainVsTreeCompose verifies the associativity of transparent
// composition: the sequential chain and CHOPIN's pairwise tree produce the
// same image (up to floating-point rounding).
func TestChainVsTreeCompose(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		layers := randomLayers(n, 48, 48, int64(n))
		chain := ChainCompose(colorspace.BlendOver, layers)
		tree := TreeCompose(colorspace.BlendOver, layers)
		if !chain.Equal(tree, 1e-9) {
			t.Errorf("n=%d: chain and tree compositions differ in %d pixels",
				n, chain.DiffCount(tree, 1e-9))
		}
	}
}

// TestChainOrderMatters documents non-commutativity: reversing the layer
// order changes the image, which is why transparent sub-images may only
// merge with ADJACENT neighbours.
func TestChainOrderMatters(t *testing.T) {
	layers := randomLayers(3, 16, 16, 99)
	fwd := ChainCompose(colorspace.BlendOver, layers)
	rev := ChainCompose(colorspace.BlendOver,
		[]*framebuffer.Buffer{layers[2], layers[1], layers[0]})
	if fwd.Equal(rev, 1e-9) {
		t.Error("expected reversed composition order to differ")
	}
}

func TestComposeEmptyInputs(t *testing.T) {
	if ChainCompose(colorspace.BlendOver, nil) != nil {
		t.Error("ChainCompose(nil) should be nil")
	}
	if TreeCompose(colorspace.BlendOver, nil) != nil {
		t.Error("TreeCompose(nil) should be nil")
	}
	if DepthReference(nil, colorspace.CmpLess) != nil {
		t.Error("DepthReference(nil) should be nil")
	}
}

// schedulePlans builds, through plan.For, every exchange plan that supports
// n GPUs over h rows: direct-send, binary-swap, mixed-radix, and radix-k at
// each radix in ks. An algorithm that does not support n must be refused
// with an error, never built.
func schedulePlans(t *testing.T, n, h int, ks ...int) []*plan.Plan {
	t.Helper()
	var out []*plan.Plan
	add := func(alg plan.Algorithm, k int, supported bool) {
		p, err := plan.For(alg, n, h, k, plan.AssocCommutative, 1)
		switch {
		case supported && err != nil:
			t.Fatalf("plan.For(%s, n=%d, k=%d): %v", alg, n, k, err)
		case !supported && err == nil:
			t.Fatalf("plan.For(%s, n=%d, k=%d): want an unsupported-count error", alg, n, k)
		case supported:
			out = append(out, p)
		}
	}
	add(plan.AlgDirectSend, 0, true)
	add(plan.AlgBinarySwap, 0, n&(n-1) == 0)
	add(plan.AlgMixedRadix, 0, true)
	for _, k := range ks {
		add(plan.AlgRadixK, k, isPowerOf(n, k))
	}
	return out
}

// planName labels a plan in failure messages.
func planName(p *plan.Plan) string {
	if p.Alg == plan.AlgRadixK {
		return fmt.Sprintf("%s(k=%d)", p.Alg, p.K)
	}
	return p.Alg.String()
}

// applyFor builds one plan with plan.For and applies it to subs.
func applyFor(t *testing.T, alg plan.Algorithm, k int, subs []*framebuffer.Buffer) (*plan.Plan, *framebuffer.Buffer, int) {
	t.Helper()
	p, err := plan.For(alg, len(subs), subs[0].Height(), k, plan.AssocCommutative, 1)
	if err != nil {
		t.Fatalf("plan.For(%s, n=%d, k=%d): %v", alg, len(subs), k, err)
	}
	img, px, err := Apply(p, subs, colorspace.CmpLess)
	if err != nil {
		t.Fatalf("Apply(%s, n=%d): %v", planName(p), len(subs), err)
	}
	return p, img, px
}

func TestDirectSendMatchesReference(t *testing.T) {
	subs := randomSubImages(t, 8, 128, 96, 11)
	ref := DepthReference(subs, colorspace.CmpLess)
	p, got, px := applyFor(t, plan.AlgDirectSend, 0, subs)
	if !got.Equal(ref, 0) {
		t.Fatalf("direct-send differs from reference in %d pixels", got.DiffCount(ref, 0))
	}
	if len(p.Rounds) != 1 || p.Sessions() != 8*7 {
		t.Errorf("direct-send: %d rounds, %d sessions; want 1 round of 56", len(p.Rounds), p.Sessions())
	}
	// Each receiver merges at most its owned share of every other sub-image.
	if px == 0 || px > 7*128*96 {
		t.Errorf("direct-send merged %d pixels, want 1..%d", px, 7*128*96)
	}
}

func TestBinarySwapMatchesReference(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		subs := randomSubImages(t, n, 64, 64, int64(20+n))
		ref := DepthReference(subs, colorspace.CmpLess)
		p, got, _ := applyFor(t, plan.AlgBinarySwap, 0, subs)
		if !got.Equal(ref, 0) {
			t.Fatalf("n=%d: binary-swap differs in %d pixels", n, got.DiffCount(ref, 0))
		}
		wantRounds := 0
		for m := 1; m < n; m *= 2 {
			wantRounds++
		}
		if len(p.Rounds) != wantRounds {
			t.Errorf("n=%d: rounds = %d, want %d", n, len(p.Rounds), wantRounds)
		}
	}
}

func TestBinarySwapRequiresPowerOfTwo(t *testing.T) {
	if _, err := plan.For(plan.AlgBinarySwap, 3, 32, 0, plan.AssocCommutative, 1); err == nil {
		t.Error("expected error for n=3")
	}
}

func TestRadixKMatchesReference(t *testing.T) {
	cases := []struct{ n, k int }{{4, 2}, {8, 2}, {9, 3}, {4, 4}, {8, 8}}
	for _, c := range cases {
		subs := randomSubImages(t, c.n, 64, 64, int64(30+c.n*c.k))
		ref := DepthReference(subs, colorspace.CmpLess)
		_, got, _ := applyFor(t, plan.AlgRadixK, c.k, subs)
		if !got.Equal(ref, 0) {
			t.Fatalf("n=%d k=%d: radix-k differs in %d pixels", c.n, c.k, got.DiffCount(ref, 0))
		}
	}
}

func TestRadixKDegenerateCases(t *testing.T) {
	if _, err := plan.For(plan.AlgRadixK, 6, 32, 4, plan.AssocCommutative, 1); err == nil {
		t.Error("expected error for non-power group size")
	}
}

func TestMixedRadixMatchesReference(t *testing.T) {
	for _, n := range []int{2, 3, 5, 6, 8, 10, 12} {
		subs := randomSubImages(t, n, 64, 64, int64(40+n))
		ref := DepthReference(subs, colorspace.CmpLess)
		p, got, px := applyFor(t, plan.AlgMixedRadix, 0, subs)
		if !got.Equal(ref, 0) {
			t.Fatalf("n=%d: mixed-radix differs in %d pixels", n, got.DiffCount(ref, 0))
		}
		if len(p.Rounds) == 0 || px == 0 {
			t.Errorf("n=%d: %d rounds, %d merged pixels", n, len(p.Rounds), px)
		}
	}
}

func TestMixedRadixEqualsBinarySwapForPowersOfTwo(t *testing.T) {
	subs := randomSubImages(t, 8, 64, 64, 99)
	bs, bsImg, bsPx := applyFor(t, plan.AlgBinarySwap, 0, subs)
	mr, mrImg, mrPx := applyFor(t, plan.AlgMixedRadix, 0, subs)
	if len(bs.Rounds) != len(mr.Rounds) || bs.Sessions() != mr.Sessions() || bsPx != mrPx {
		t.Errorf("mixed-radix(8) should equal binary-swap: %d rounds/%d sessions/%d px vs %d/%d/%d",
			len(mr.Rounds), mr.Sessions(), mrPx, len(bs.Rounds), bs.Sessions(), bsPx)
	}
	if !mrImg.Equal(bsImg, 0) {
		t.Error("mixed-radix(8) and binary-swap images differ")
	}
}

// TestScheduleErrorContract pins Apply's error contract: a nil or malformed
// plan and sub-images that do not fit the plan are reported through the
// error return (never a panic, never a silent wrong image), while dead
// GPUs' sub-images are ignored. Prime counts, which only direct-send,
// mixed-radix and radix-k with k=n support, compose exactly.
func TestScheduleErrorContract(t *testing.T) {
	subs := randomSubImages(t, 6, 32, 32, 42)
	mr, err := plan.For(plan.AlgMixedRadix, 6, 32, 0, plan.AssocCommutative, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Apply(nil, subs, colorspace.CmpLess); err == nil {
		t.Error("Apply(nil plan): want error")
	}
	if _, _, err := Apply(mr, subs[:5], colorspace.CmpLess); err == nil {
		t.Error("Apply with 5 sub-images for a 6-GPU plan: want error")
	}
	short := append([]*framebuffer.Buffer(nil), subs...)
	short[3] = framebuffer.MustNew(32, 31)
	if _, _, err := Apply(mr, short, colorspace.CmpLess); err == nil {
		t.Error("Apply with a sub-image of the wrong height: want error")
	}
	narrow := append([]*framebuffer.Buffer(nil), subs...)
	narrow[5] = framebuffer.MustNew(31, 32)
	if _, _, err := Apply(mr, narrow, colorspace.CmpLess); err == nil {
		t.Error("Apply with a sub-image of the wrong width: want error")
	}
	missing := append([]*framebuffer.Buffer(nil), subs...)
	missing[0] = nil
	if _, _, err := Apply(mr, missing, colorspace.CmpLess); err == nil {
		t.Error("Apply with a nil live sub-image: want error")
	}
	bad := &plan.Plan{Alg: plan.AlgBinarySwap, N: 2, Height: 32,
		Rounds: []plan.Round{{{Sender: 0, Receiver: 1, Region: plan.Region{Lo: 0, Hi: 16}}}},
		Final:  []plan.Region{{Lo: 0, Hi: 16}, {Lo: 16, Hi: 32}},
	}
	if _, _, err := Apply(bad, subs[:2], colorspace.CmpLess); err == nil {
		t.Error("Apply of a plan that fails plan.Check: want error")
	}
	live := []bool{true, true, true, false, true, true}
	rp, err := plan.Repair(mr, live, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead := append([]*framebuffer.Buffer(nil), subs...)
	dead[3] = nil
	survivors := []*framebuffer.Buffer{subs[0], subs[1], subs[2], subs[4], subs[5]}
	if got, _, err := Apply(rp, dead, colorspace.CmpLess); err != nil {
		t.Errorf("Apply of a repaired plan with a nil dead sub-image: %v", err)
	} else if !got.Equal(DepthReference(survivors, colorspace.CmpLess), 0) {
		t.Error("repaired plan differs from the survivors' reference")
	}

	prime := randomSubImages(t, 7, 32, 32, 43)
	ref := DepthReference(prime, colorspace.CmpLess)
	for _, p := range schedulePlans(t, 7, 32, 7) {
		if got, _, err := Apply(p, prime, colorspace.CmpLess); err != nil {
			t.Errorf("%s(n=7): %v", planName(p), err)
		} else if !got.Equal(ref, 0) {
			t.Errorf("%s(n=7) differs from reference", planName(p))
		}
	}
}
