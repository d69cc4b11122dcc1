// Package composite implements parallel image composition: the reduction of
// several sub-images into one (paper Section II-D).
//
// Two kinds of reduction appear in sort-last rendering:
//
//   - Opaque composition keeps, per pixel, the fragment closest to the
//     camera. It is commutative and associative, so sub-images can be
//     composed out-of-order ([DepthMergeRegion]).
//
//   - Transparent composition blends pixels with an operator such as
//     Porter–Duff over. Blending is NOT commutative — order matters — but it
//     IS associative, so adjacent sub-images in draw order may be merged in
//     any grouping ([ChainCompose], [TreeCompose]). CHOPIN exploits exactly
//     this property.
//
// [Apply] runs any exchange plan from package plan — direct-send,
// binary-swap, radix-k, mixed-radix, or a repaired plan — over in-memory
// sub-images, so the classic communication schedules of the
// parallel-rendering literature double as a standalone composition library.
package composite

import (
	"fmt"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// BlendMerge composes the FRONT sub-image src over the BACK sub-image dst
// with the given operator over the given tiles: dst = op(src, dst) per
// pixel. Only src's dirty tiles are examined; the number of transferred
// pixels is returned. Passing nil tiles merges every tile.
//
// "Front" means later in draw-command order: sub-images must be merged
// respecting the stream order, though associativity allows any grouping.
func BlendMerge(dst, src *framebuffer.Buffer, op colorspace.BlendOp, tiles []int) (pixels int) {
	if tiles == nil {
		tiles = allTiles(dst)
	}
	for _, tl := range tiles {
		if !src.Dirty(tl) {
			continue
		}
		x0, y0, x1, y1 := dst.TileRect(tl)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				dst.Set(x, y, colorspace.Blend(op, src.At(x, y), dst.At(x, y)))
			}
		}
		pixels += dst.TilePixelCount(tl)
	}
	return pixels
}

func allTiles(b *framebuffer.Buffer) []int {
	tiles := make([]int, b.TileCount())
	for i := range tiles {
		tiles[i] = i
	}
	return tiles
}

// ChainCompose folds an ordered back-to-front list of transparent layers
// into a single image by merging left to right: layer i+1 is composed over
// the accumulated result of layers 0..i. The input buffers are not modified.
func ChainCompose(op colorspace.BlendOp, layers []*framebuffer.Buffer) *framebuffer.Buffer {
	if len(layers) == 0 {
		return nil
	}
	acc := layers[0].Clone()
	for _, l := range layers[1:] {
		BlendMerge(acc, l, op, nil)
	}
	return acc
}

// TreeCompose composes the same ordered layer list as ChainCompose but by
// recursively merging adjacent halves — the asynchronous pairing CHOPIN's
// composition scheduler performs. By associativity the result equals
// ChainCompose up to floating-point rounding. The input buffers are not
// modified.
func TreeCompose(op colorspace.BlendOp, layers []*framebuffer.Buffer) *framebuffer.Buffer {
	switch len(layers) {
	case 0:
		return nil
	case 1:
		return layers[0].Clone()
	}
	mid := len(layers) / 2
	back := TreeCompose(op, layers[:mid])
	front := TreeCompose(op, layers[mid:])
	BlendMerge(back, front, op, nil)
	return back
}

// DepthReference sequentially depth-merges all sub-images into a fresh
// buffer, the golden reference the parallel schedules are tested against.
func DepthReference(subs []*framebuffer.Buffer, cmp colorspace.CompareFunc) *framebuffer.Buffer {
	if len(subs) == 0 {
		return nil
	}
	acc := subs[0].Clone()
	for _, s := range subs[1:] {
		DepthMergeRegion(acc, s, cmp, 0, acc.Height(), nil)
	}
	return acc
}

// Apply depth-composes the live GPUs' sub-images by executing plan p: its
// rounds run in order, each session depth-merging the sender's current
// accumulation over the session region into the receiver's, exactly as the
// scheme layer's plan executor merges. For direct-send (OwnerRegions) plans
// a session merges only the receiver's owned tiles, with tiles interleaved
// round-robin over the plan's live GPUs. The composed image is then
// assembled from each live GPU's final rows (owned tiles for OwnerRegions
// plans). subs is indexed by GPU id; entries of dead GPUs are ignored and
// may be nil. The inputs are not modified.
//
// Apply returns the composed image and the number of pixels merged across
// all sessions. A nil or structurally invalid plan, or sub-images that do
// not match it, are reported as errors.
func Apply(p *plan.Plan, subs []*framebuffer.Buffer, cmp colorspace.CompareFunc) (*framebuffer.Buffer, int, error) {
	if p == nil {
		return nil, 0, fmt.Errorf("composite: Apply of a nil plan")
	}
	if len(subs) != p.N {
		return nil, 0, fmt.Errorf("composite: plan covers %d GPUs, got %d sub-images", p.N, len(subs))
	}
	if err := plan.Check(p); err != nil {
		return nil, 0, err
	}
	var live []int // Check guarantees at least one
	for g := range subs {
		if p.IsLive(g) {
			live = append(live, g)
		}
	}
	w := 0
	if s := subs[live[0]]; s != nil {
		w = s.Width()
	}
	work := make([]*framebuffer.Buffer, p.N)
	for _, g := range live {
		s := subs[g]
		if s == nil || s.Width() != w || s.Height() != p.Height {
			return nil, 0, fmt.Errorf("composite: sub-image %d does not match the plan's %d-row screen", g, p.Height)
		}
		work[g] = s.Clone()
	}
	out := framebuffer.MustNew(w, p.Height)
	var owned [][]int
	if p.OwnerRegions {
		owned = make([][]int, p.N)
		for v, g := range live {
			owned[g] = framebuffer.OwnedTiles(out.TilesX(), out.TilesY(), len(live), v)
		}
	}
	pixels := 0
	for _, round := range p.Rounds {
		for _, s := range round {
			var tiles []int
			if owned != nil {
				if tiles = owned[s.Receiver]; tiles == nil {
					continue
				}
			}
			pixels += DepthMergeRegion(work[s.Receiver], work[s.Sender], cmp, s.Region.Lo, s.Region.Hi, tiles)
		}
	}
	all := allTiles(out)
	for _, g := range live {
		if owned != nil {
			copyRegion(out, work[g], 0, p.Height, owned[g])
		} else {
			copyRegion(out, work[g], p.Final[g].Lo, p.Final[g].Hi, all)
		}
	}
	return out, pixels, nil
}

// DepthMergeRegion composes src into dst over rows [y0, y1), keeping per
// pixel the value whose depth passes cmp against dst's (for CmpLess: the
// nearer fragment), restricted to src's dirty tiles (and, when tiles is
// non-nil, to that tile subset): each tile's rectangle is clipped to the row
// range before merging. Rows [0, Height) merge whole tiles. This is the
// region-exchange primitive of the scheme layer's plan executor — payload
// regions are row ranges that need not align with tile boundaries, and
// clipping to dirty tiles keeps a buffer's cleared pixels (depth exactly
// ClearDepth) from overwriting real far-plane content under CmpLessEqual
// ties. Returns the merged pixel count. It does not allocate: with tiles nil
// it walks src's dirty flags in place, in ascending tile order.
func DepthMergeRegion(dst, src *framebuffer.Buffer, cmp colorspace.CompareFunc, y0, y1 int, tiles []int) (pixels int) {
	if tiles == nil {
		for tl := 0; tl < src.TileCount(); tl++ {
			pixels += depthMergeTile(dst, src, cmp, y0, y1, tl)
		}
		return pixels
	}
	for _, tl := range tiles {
		pixels += depthMergeTile(dst, src, cmp, y0, y1, tl)
	}
	return pixels
}

// depthMergeTile is DepthMergeRegion for one tile: a clean tile of src
// merges nothing.
func depthMergeTile(dst, src *framebuffer.Buffer, cmp colorspace.CompareFunc, y0, y1, tl int) int {
	if !src.Dirty(tl) {
		return 0
	}
	x0, ty0, x1, ty1 := dst.TileRect(tl)
	cy0, cy1 := max(ty0, y0), min(ty1, y1)
	for y := cy0; y < cy1; y++ {
		for x := x0; x < x1; x++ {
			if colorspace.Compare(cmp, src.DepthAt(x, y), dst.DepthAt(x, y)) {
				dst.Set(x, y, src.At(x, y))
				dst.SetDepth(x, y, src.DepthAt(x, y))
			}
		}
	}
	if cy1 <= cy0 {
		return 0
	}
	return (cy1 - cy0) * (x1 - x0)
}

// copyRegion copies colour and depth over rows [y0, y1) of the given tiles
// from src into dst.
func copyRegion(dst, src *framebuffer.Buffer, y0, y1 int, tiles []int) {
	for _, tl := range tiles {
		x0, ty0, x1, ty1 := dst.TileRect(tl)
		for y := max(ty0, y0); y < min(ty1, y1); y++ {
			for x := x0; x < x1; x++ {
				dst.Set(x, y, src.At(x, y))
				dst.SetDepth(x, y, src.DepthAt(x, y))
			}
		}
	}
}
