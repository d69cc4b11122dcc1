package sfr

import (
	"fmt"
	"math/bits"

	"chopin/internal/framebuffer"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
)

// binner routes primitives to the GPUs owning the screen tiles they cover —
// the owner decision sort-first (GPUpd) and sort-middle share (paper
// Section III-A). A triangle's destinations are the owners of the tiles its
// clipped screen-space bounding box overlaps, kept as one bit per GPU.
type binner struct {
	sys   *multigpu.System
	fr    *primitive.Frame
	masks [][]uint64 // per draw, each triangle's destination mask; nil until first use
}

// newBinner builds the binner for one Run. A destination mask is one 64-bit
// word, so more than 64 GPUs is an error rather than dropped triangles.
func newBinner(sys *multigpu.System, fr *primitive.Frame) (*binner, error) {
	if n := sys.Cfg.NumGPUs; n > 64 {
		return nil, fmt.Errorf("sfr: primitive distribution supports at most 64 GPUs, got %d", n)
	}
	return &binner{sys: sys, fr: fr, masks: make([][]uint64, len(fr.Draws))}, nil
}

// mask returns the destination mask of triangle ti of draw di, computing the
// whole draw's masks on first use. A fully clipped triangle has mask 0.
func (b *binner) mask(di, ti int) uint64 {
	if b.masks[di] == nil {
		b.masks[di] = b.drawMasks(&b.fr.Draws[di])
	}
	return b.masks[di][ti]
}

// drawMasks projects every triangle of d (the preliminary transformation of
// raster.ProjectBounds) and ORs the owners of its bounding-box tiles.
func (b *binner) drawMasks(d *primitive.DrawCommand) []uint64 {
	const ts = framebuffer.TileSize
	fr := b.fr
	mvp := fr.Proj.Mul(fr.View).Mul(d.Model)
	tilesX := (fr.Width + ts - 1) / ts
	tilesY := (fr.Height + ts - 1) / ts
	masks := make([]uint64, len(d.Tris))
	for i := range d.Tris {
		minX, minY, maxX, maxY, ok := raster.ProjectBounds(d.Tris[i], mvp, fr.Width, fr.Height)
		if !ok {
			continue
		}
		tx0, tx1 := max(0, int(minX)/ts), min(tilesX-1, int(maxX)/ts)
		ty0, ty1 := max(0, int(minY)/ts), min(tilesY-1, int(maxY)/ts)
		var m uint64
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				m |= 1 << uint(b.sys.Owner(ty*tilesX+tx))
			}
		}
		masks[i] = m
	}
	return masks
}

// count adds each triangle in [lo, hi) of draw di to counts[dst] for every
// destination dst other than src, the GPU sending it: src already holds the
// triangles it sends.
func (b *binner) count(counts []int64, src, di, lo, hi int) {
	for ti := lo; ti < hi; ti++ {
		for m := b.mask(di, ti) &^ (1 << uint(src)); m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(m)]++
		}
	}
}

// sub assembles dst's share of triangles [lo, hi) of draw di: the parent
// draw's ID, transform, state and costs with only the triangles routed to
// dst, in their original order. Empty Tris means dst receives nothing.
func (b *binner) sub(di, lo, hi, dst int) primitive.DrawCommand {
	d := &b.fr.Draws[di]
	s := *d
	s.Tris = nil
	bit := uint64(1) << uint(dst)
	for ti := lo; ti < hi; ti++ {
		if b.mask(di, ti)&bit != 0 {
			s.Tris = append(s.Tris, d.Tris[ti])
		}
	}
	return s
}
