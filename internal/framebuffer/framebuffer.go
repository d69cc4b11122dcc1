// Package framebuffer implements the render-target memory the pipeline draws
// into: a colour + depth + stencil buffer organized as a grid of 64×64-pixel
// tiles.
//
// Tiles are the unit of screen-space distribution in split-frame rendering
// (the simulated systems interleave tiles across GPUs, Section V of the
// paper) and the unit of composition traffic: only tiles actually touched by
// a draw command ("dirty" tiles) are exchanged between GPUs during image
// composition (Section VI-C).
package framebuffer

import (
	"fmt"
	"hash/fnv"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"chopin/internal/colorspace"
)

// TileSize is the width and height in pixels of a framebuffer tile. The
// simulated SFR implementations interleave tiles of this size across GPUs,
// matching the paper's 64×64 split.
const TileSize = 64

// Bytes-per-pixel costs used for inter-GPU traffic accounting.
const (
	// ColorBytesPerPixel is the size of one colour sample (RGBA8).
	ColorBytesPerPixel = 4
	// DepthBytesPerPixel is the size of one depth sample (D24S8).
	DepthBytesPerPixel = 4
	// OpaqueCompositionBytesPerPixel is transferred per pixel when composing
	// opaque sub-images: colour plus the depth needed for the z-compare.
	OpaqueCompositionBytesPerPixel = ColorBytesPerPixel + DepthBytesPerPixel
	// TransparentCompositionBytesPerPixel is transferred per pixel when
	// composing transparent sub-images: premultiplied colour with alpha.
	TransparentCompositionBytesPerPixel = ColorBytesPerPixel
)

// ClearDepth is the depth value of an empty buffer (farthest possible) under
// the standard less-than depth test.
const ClearDepth = 1.0

// Buffer is a 2D render target with colour, depth and stencil planes and
// per-tile dirty tracking.
type Buffer struct {
	width, height  int
	tilesX, tilesY int

	color   []colorspace.RGBA
	depth   []float64
	stencil []uint8
	dirty   []bool
}

// New returns a cleared buffer of the given pixel dimensions.
// Width and height must be positive.
func New(width, height int) (*Buffer, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("framebuffer: invalid dimensions %d×%d", width, height)
	}
	b := &Buffer{
		width:  width,
		height: height,
		tilesX: (width + TileSize - 1) / TileSize,
		tilesY: (height + TileSize - 1) / TileSize,
	}
	n := width * height
	// make already yields the cleared state for every plane but depth:
	// Transparent is the zero RGBA, the stencil clears to zero and no tile
	// starts dirty.
	b.color = make([]colorspace.RGBA, n)
	b.depth = make([]float64, n)
	b.stencil = make([]uint8, n)
	b.dirty = make([]bool, b.tilesX*b.tilesY)
	for i := range b.depth {
		b.depth[i] = ClearDepth
	}
	return b, nil
}

// MustNew is like New but panics on invalid dimensions. It is the sanctioned
// convenience for tests, examples, and call sites whose dimensions were
// already validated at a configuration boundary (the regexp.MustCompile
// idiom); library code handling external input must use New.
func MustNew(width, height int) *Buffer {
	b, err := New(width, height)
	if err != nil {
		panic(err)
	}
	return b
}

// Width returns the buffer width in pixels.
func (b *Buffer) Width() int { return b.width }

// Height returns the buffer height in pixels.
func (b *Buffer) Height() int { return b.height }

// TilesX returns the number of tile columns.
func (b *Buffer) TilesX() int { return b.tilesX }

// TilesY returns the number of tile rows.
func (b *Buffer) TilesY() int { return b.tilesY }

// TileCount returns the total number of tiles.
func (b *Buffer) TileCount() int { return b.tilesX * b.tilesY }

// Clear sets every pixel to the given colour and depth, zeroes the stencil
// plane, and marks every tile dirty (a full-screen clear touches everything).
func (b *Buffer) Clear(c colorspace.RGBA, depth float64) {
	for i := range b.color {
		b.color[i] = c
		b.depth[i] = depth
		b.stencil[i] = 0
	}
	for i := range b.dirty {
		b.dirty[i] = true
	}
}

// FillColor sets every pixel's colour without touching depth, stencil or
// dirty flags. Transparent sub-image render targets are initialized this
// way: they inherit the opaque depth buffer (for occlusion tests) but start
// from a fully transparent colour plane.
func (b *Buffer) FillColor(c colorspace.RGBA) {
	for i := range b.color {
		b.color[i] = c
	}
}

// ClearDirty resets all dirty-tile flags.
func (b *Buffer) ClearDirty() {
	for i := range b.dirty {
		b.dirty[i] = false
	}
}

// Reset returns the buffer to its freshly constructed state: transparent
// colour, far depth, zero stencil, nothing dirty. Degraded-mode recovery uses
// this to drop a failed GPU's targets so stale content cannot be read back.
func (b *Buffer) Reset() {
	b.Clear(colorspace.Transparent, ClearDepth)
	b.ClearDirty()
}

// InBounds reports whether pixel (x, y) lies inside the buffer.
func (b *Buffer) InBounds(x, y int) bool {
	return x >= 0 && x < b.width && y >= 0 && y < b.height
}

func (b *Buffer) index(x, y int) int { return y*b.width + x }

// At returns the colour at (x, y).
func (b *Buffer) At(x, y int) colorspace.RGBA { return b.color[b.index(x, y)] }

// Set writes the colour at (x, y) and marks its tile dirty.
func (b *Buffer) Set(x, y int, c colorspace.RGBA) {
	b.color[b.index(x, y)] = c
	b.dirty[b.TileOf(x, y)] = true
}

// DepthAt returns the depth at (x, y).
func (b *Buffer) DepthAt(x, y int) float64 { return b.depth[b.index(x, y)] }

// SetDepth writes the depth at (x, y).
func (b *Buffer) SetDepth(x, y int, d float64) { b.depth[b.index(x, y)] = d }

// StencilAt returns the stencil value at (x, y).
func (b *Buffer) StencilAt(x, y int) uint8 { return b.stencil[b.index(x, y)] }

// SetStencil writes the stencil value at (x, y).
func (b *Buffer) SetStencil(x, y int, s uint8) { b.stencil[b.index(x, y)] = s }

// TileOf returns the tile index containing pixel (x, y).
func (b *Buffer) TileOf(x, y int) int {
	return (y/TileSize)*b.tilesX + x/TileSize
}

// TileRect returns the pixel bounds [x0, x1)×[y0, y1) of tile t, clipped to
// the buffer edge for partial tiles.
func (b *Buffer) TileRect(t int) (x0, y0, x1, y1 int) {
	tx, ty := t%b.tilesX, t/b.tilesX
	x0, y0 = tx*TileSize, ty*TileSize
	x1 = min(x0+TileSize, b.width)
	y1 = min(y0+TileSize, b.height)
	return
}

// TilePixelCount returns the number of pixels in tile t (smaller than
// TileSize² for edge tiles).
func (b *Buffer) TilePixelCount(t int) int {
	x0, y0, x1, y1 := b.TileRect(t)
	return (x1 - x0) * (y1 - y0)
}

// Dirty reports whether tile t has been written since the last ClearDirty.
func (b *Buffer) Dirty(t int) bool { return b.dirty[t] }

// MarkDirty marks tile t as written.
func (b *Buffer) MarkDirty(t int) { b.dirty[t] = true }

// DirtyTiles returns the indices of all dirty tiles in ascending order.
func (b *Buffer) DirtyTiles() []int {
	var out []int
	for i, d := range b.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// CopyTileFrom copies tile t (colour, depth and stencil) from src, which must
// have identical dimensions, and marks it dirty if it was dirty in src.
func (b *Buffer) CopyTileFrom(src *Buffer, t int) error {
	if src.width != b.width || src.height != b.height {
		return fmt.Errorf("framebuffer: CopyTileFrom dimension mismatch: %d×%d vs %d×%d",
			src.width, src.height, b.width, b.height)
	}
	b.copyTile(src, t)
	if src.dirty[t] {
		b.dirty[t] = true
	}
	return nil
}

// copyTile copies tile t's pixels from src, which has b's dimensions.
func (b *Buffer) copyTile(src *Buffer, t int) {
	x0, y0, x1, y1 := b.TileRect(t)
	for y := y0; y < y1; y++ {
		i0 := b.index(x0, y)
		i1 := b.index(x1, y)
		copy(b.color[i0:i1], src.color[i0:i1])
		copy(b.depth[i0:i1], src.depth[i0:i1])
		copy(b.stencil[i0:i1], src.stencil[i0:i1])
	}
}

// CopyDirtyFrom makes b hold exactly src's dirty tiles, as a fresh buffer
// given CopyTileFrom(src, t) for every dirty t would: it copies src's dirty
// tiles, clears the tiles dirty in b but clean in src, and leaves the rest
// alone. That equivalence requires b's clean tiles to hold cleared pixels,
// which holds for a buffer written only through Set (with SetDepth or
// SetStencil only on pixels it has Set), dirty-tile copies and CopyDirtyFrom
// itself. src must have identical dimensions. It lets a work buffer be
// refilled in place instead of reallocated.
func (b *Buffer) CopyDirtyFrom(src *Buffer) error {
	if src.width != b.width || src.height != b.height {
		return fmt.Errorf("framebuffer: CopyDirtyFrom dimension mismatch: %d×%d vs %d×%d",
			src.width, src.height, b.width, b.height)
	}
	for t, d := range src.dirty {
		switch {
		case d:
			b.copyTile(src, t)
			b.dirty[t] = true
		case b.dirty[t]:
			b.ClearTile(t)
		}
	}
	return nil
}

// ClearTile resets tile t to the cleared state (transparent colour, far
// depth, zero stencil) and clears its dirty flag. Degraded-mode recovery
// uses this before re-rendering a reassigned tile from scratch.
func (b *Buffer) ClearTile(t int) {
	x0, y0, x1, y1 := b.TileRect(t)
	for y := y0; y < y1; y++ {
		i0, i1 := b.index(x0, y), b.index(x1, y)
		clear(b.color[i0:i1]) // Transparent is the zero RGBA
		for i := i0; i < i1; i++ {
			b.depth[i] = ClearDepth
		}
		clear(b.stencil[i0:i1])
	}
	b.dirty[t] = false
}

// Clone returns a deep copy of the buffer.
func (b *Buffer) Clone() *Buffer {
	c := &Buffer{
		width:  b.width,
		height: b.height,
		tilesX: b.tilesX,
		tilesY: b.tilesY,
	}
	c.color = append([]colorspace.RGBA(nil), b.color...)
	c.depth = append([]float64(nil), b.depth...)
	c.stencil = append([]uint8(nil), b.stencil...)
	c.dirty = append([]bool(nil), b.dirty...)
	return c
}

// Equal reports whether two buffers have identical dimensions and whether
// every pixel's colour is within eps per channel and depth within eps.
// Stencil must match exactly. Dirty flags are not compared.
func (b *Buffer) Equal(o *Buffer, eps float64) bool {
	if b.width != o.width || b.height != o.height {
		return false
	}
	for i := range b.color {
		if !b.color[i].ApproxEqual(o.color[i], eps) {
			return false
		}
		if math.Abs(b.depth[i]-o.depth[i]) > eps {
			return false
		}
		if b.stencil[i] != o.stencil[i] {
			return false
		}
	}
	return true
}

// DiffCount returns the number of pixels whose colour differs by more than
// eps in any channel, for test diagnostics.
func (b *Buffer) DiffCount(o *Buffer, eps float64) int {
	if b.width != o.width || b.height != o.height {
		return b.width * b.height
	}
	n := 0
	for i := range b.color {
		if !b.color[i].ApproxEqual(o.color[i], eps) {
			n++
		}
	}
	return n
}

// Checksum returns a stable hash of the quantized (8-bit) colour contents,
// used by regression tests to pin rendered output.
func (b *Buffer) Checksum() uint64 {
	h := fnv.New64a()
	var quad [4]byte
	for _, c := range b.color {
		quad[0], quad[1], quad[2], quad[3] = c.RGBA8()
		h.Write(quad[:])
	}
	return h.Sum64()
}

// ToImage converts the colour plane to a standard-library RGBA image
// (premultiplied channels quantized to 8 bits).
func (b *Buffer) ToImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, b.width, b.height))
	for y := 0; y < b.height; y++ {
		for x := 0; x < b.width; x++ {
			r, g, bl, a := b.At(x, y).RGBA8()
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: bl, A: a})
		}
	}
	return img
}

// WritePNG encodes the colour plane as a PNG.
func (b *Buffer) WritePNG(w io.Writer) error {
	return png.Encode(w, b.ToImage())
}

// OwnerOf returns the GPU that owns tile t when tiles are interleaved
// round-robin across numGPUs, the initial screen split used by all simulated
// SFR schemes (degraded-mode recovery remaps ownership dynamically). It
// returns -1 when numGPUs is not positive.
func OwnerOf(t, numGPUs int) int {
	if numGPUs <= 0 {
		return -1
	}
	return t % numGPUs
}

// OwnedTiles returns the tiles of a tilesX×tilesY grid owned by gpu under
// round-robin interleaving.
func OwnedTiles(tilesX, tilesY, numGPUs, gpu int) []int {
	var out []int
	for t := gpu; t < tilesX*tilesY; t += numGPUs {
		out = append(out, t)
	}
	return out
}
