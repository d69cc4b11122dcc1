package framebuffer

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"chopin/internal/colorspace"
)

func TestNewDimensions(t *testing.T) {
	b := MustNew(1280, 1024)
	if b.Width() != 1280 || b.Height() != 1024 {
		t.Fatalf("dims = %d×%d", b.Width(), b.Height())
	}
	if b.TilesX() != 20 || b.TilesY() != 16 || b.TileCount() != 320 {
		t.Fatalf("tiles = %d×%d (%d)", b.TilesX(), b.TilesY(), b.TileCount())
	}
}

func TestNewPartialTiles(t *testing.T) {
	// 640×480: 480 is not a multiple of 64 → 10×8 grid with short last row.
	b := MustNew(640, 480)
	if b.TilesX() != 10 || b.TilesY() != 8 {
		t.Fatalf("tiles = %d×%d", b.TilesX(), b.TilesY())
	}
	last := b.TileCount() - 1
	if got := b.TilePixelCount(last); got != 64*(480-7*64) {
		t.Errorf("edge tile pixels = %d", got)
	}
	// All tile pixel counts sum to the full screen.
	sum := 0
	for i := 0; i < b.TileCount(); i++ {
		sum += b.TilePixelCount(i)
	}
	if sum != 640*480 {
		t.Errorf("tile pixel sum = %d, want %d", sum, 640*480)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero width")
		}
	}()
	MustNew(0, 100)
}

func TestClearAndPixelAccess(t *testing.T) {
	b := MustNew(128, 128)
	red := colorspace.Opaque(1, 0, 0)
	b.Clear(red, 0.5)
	if got := b.At(64, 64); got != red {
		t.Errorf("At after clear = %+v", got)
	}
	if got := b.DepthAt(0, 0); got != 0.5 {
		t.Errorf("DepthAt after clear = %v", got)
	}
	blue := colorspace.Opaque(0, 0, 1)
	b.Set(10, 20, blue)
	b.SetDepth(10, 20, 0.25)
	b.SetStencil(10, 20, 7)
	if b.At(10, 20) != blue || b.DepthAt(10, 20) != 0.25 || b.StencilAt(10, 20) != 7 {
		t.Error("pixel write/read mismatch")
	}
}

func TestDirtyTracking(t *testing.T) {
	b := MustNew(256, 256) // 4×4 tiles
	b.ClearDirty()
	if len(b.DirtyTiles()) != 0 {
		t.Fatal("fresh buffer should have no dirty tiles after ClearDirty")
	}
	b.Set(0, 0, colorspace.Opaque(1, 1, 1))     // tile 0
	b.Set(100, 100, colorspace.Opaque(1, 1, 1)) // tile (1,1) = 5
	if got := b.DirtyTiles(); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Errorf("DirtyTiles = %v", got)
	}
	// SetDepth alone does not dirty a tile: composition transfers are driven
	// by colour writes, and the rasterizer always writes colour when it
	// writes depth.
	b.ClearDirty()
	b.SetDepth(200, 200, 0.1)
	if len(b.DirtyTiles()) != 0 {
		t.Error("SetDepth should not mark dirty")
	}
	b.MarkDirty(3)
	if !b.Dirty(3) {
		t.Error("MarkDirty(3) not visible")
	}
}

func TestTileOfAndRectRoundTrip(t *testing.T) {
	b := MustNew(300, 200)
	f := func(px, py uint16) bool {
		x := int(px) % b.Width()
		y := int(py) % b.Height()
		tile := b.TileOf(x, y)
		x0, y0, x1, y1 := b.TileRect(tile)
		return x >= x0 && x < x1 && y >= y0 && y < y1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyTileFrom(t *testing.T) {
	src := MustNew(128, 128)
	dst := MustNew(128, 128)
	green := colorspace.Opaque(0, 1, 0)
	src.Set(70, 70, green) // tile (1,1) = 3 in a 2×2 grid
	src.SetDepth(70, 70, 0.3)
	src.SetStencil(70, 70, 9)
	tile := src.TileOf(70, 70)
	dst.ClearDirty()
	dst.CopyTileFrom(src, tile)
	if dst.At(70, 70) != green || dst.DepthAt(70, 70) != 0.3 || dst.StencilAt(70, 70) != 9 {
		t.Error("tile copy did not transfer pixel planes")
	}
	if !dst.Dirty(tile) {
		t.Error("tile copy should propagate dirty flag")
	}
	// Pixels outside the tile are untouched.
	if dst.At(0, 0) != (colorspace.RGBA{}) {
		t.Error("copy leaked outside tile")
	}
}

func TestCopyTileFromMismatchErrors(t *testing.T) {
	if err := MustNew(64, 64).CopyTileFrom(MustNew(128, 128), 0); err == nil {
		t.Error("expected error on dimension mismatch")
	}
}

// TestNewMatchesClear pins that New, which fills only the depth plane,
// builds the same planes as clearing a scribbled buffer.
func TestNewMatchesClear(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {64, 64}, {202, 151}} {
		got := MustNew(dims[0], dims[1])
		want := MustNew(dims[0], dims[1])
		want.Clear(colorspace.RGBA{R: 0.5, G: 0.25, B: 1, A: 0.75}, 0.3)
		for i := range want.stencil {
			want.stencil[i] = 7
		}
		want.Clear(colorspace.Transparent, ClearDepth)
		want.ClearDirty()
		if !slices.Equal(got.color, want.color) || !slices.Equal(got.depth, want.depth) ||
			!slices.Equal(got.stencil, want.stencil) || !slices.Equal(got.dirty, want.dirty) {
			t.Errorf("%d×%d: New differs from Clear(Transparent, ClearDepth) + ClearDirty", dims[0], dims[1])
		}
	}
}

// randomPixel writes a random colour, depth and stencil at a random pixel
// through Set, so its tile is marked dirty.
func randomPixel(b *Buffer, rng *rand.Rand) {
	x, y := rng.Intn(b.Width()), rng.Intn(b.Height())
	b.Set(x, y, colorspace.RGBA{R: rng.Float64(), G: rng.Float64(), B: rng.Float64(), A: rng.Float64()})
	b.SetDepth(x, y, rng.Float64())
	b.SetStencil(x, y, uint8(rng.Intn(256)))
}

// randomSource returns a buffer whose clean tiles hold stale, uncleared
// content (like a render target after ClearDirty) and whose dirty tiles are
// a random subset.
func randomSource(w, h int, rng *rand.Rand) *Buffer {
	b := MustNew(w, h)
	b.Clear(colorspace.Opaque(rng.Float64(), rng.Float64(), rng.Float64()), rng.Float64())
	for i := 0; i < 50; i++ {
		randomPixel(b, rng)
	}
	b.ClearDirty()
	for i, n := 0, rng.Intn(3*b.TileCount()); i < n; i++ {
		randomPixel(b, rng)
	}
	return b
}

// TestCopyDirtyFromMatchesFreshCopy checks CopyDirtyFrom against its
// definition: a fresh buffer given CopyTileFrom for every dirty source tile.
// 202×151 has partial tiles on the right and bottom edges. Destinations
// carry random prior content written only through Set, dirty-tile copies and
// earlier CopyDirtyFrom calls.
func TestCopyDirtyFromMatchesFreshCopy(t *testing.T) {
	const w, h = 202, 151
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		dst := MustNew(w, h)
		for i, n := 0, rng.Intn(2*dst.TileCount()); i < n; i++ {
			randomPixel(dst, rng)
		}
		if rng.Intn(2) == 0 {
			prior := randomSource(w, h, rng)
			for _, tl := range prior.DirtyTiles() {
				if rng.Intn(2) == 0 {
					_ = dst.CopyTileFrom(prior, tl)
				}
			}
		}
		for refill := 0; refill < 3; refill++ {
			src := randomSource(w, h, rng)
			want := MustNew(w, h)
			for _, tl := range src.DirtyTiles() {
				_ = want.CopyTileFrom(src, tl)
			}
			if err := dst.CopyDirtyFrom(src); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(want, 0) {
				t.Fatalf("iter %d refill %d: %d colour pixels differ from a fresh copy", iter, refill, dst.DiffCount(want, 0))
			}
			if !slices.Equal(dst.stencil, want.stencil) {
				t.Fatalf("iter %d refill %d: stencil differs from a fresh copy", iter, refill)
			}
			if !slices.Equal(dst.dirty, want.dirty) {
				t.Fatalf("iter %d refill %d: dirty flags %v, want %v", iter, refill, dst.DirtyTiles(), want.DirtyTiles())
			}
		}
	}
}

func TestCopyDirtyFromMismatchErrors(t *testing.T) {
	dst := MustNew(64, 64)
	if err := dst.CopyDirtyFrom(MustNew(128, 64)); err == nil {
		t.Error("expected error on dimension mismatch")
	}
}

func TestCloneIndependent(t *testing.T) {
	b := MustNew(64, 64)
	b.Set(1, 1, colorspace.Opaque(1, 0, 0))
	c := b.Clone()
	if !c.Equal(b, 0) {
		t.Fatal("clone differs from original")
	}
	c.Set(2, 2, colorspace.Opaque(0, 1, 0))
	if b.At(2, 2) == c.At(2, 2) {
		t.Error("clone shares storage with original")
	}
}

func TestEqualAndDiffCount(t *testing.T) {
	a := MustNew(32, 32)
	b := MustNew(32, 32)
	if !a.Equal(b, 0) {
		t.Fatal("fresh buffers should be equal")
	}
	b.Set(5, 5, colorspace.Opaque(1, 1, 1))
	if a.Equal(b, 0) {
		t.Error("buffers should differ")
	}
	if got := a.DiffCount(b, 1e-9); got != 1 {
		t.Errorf("DiffCount = %d, want 1", got)
	}
	if a.Equal(MustNew(64, 64), 0) {
		t.Error("different dimensions should not be equal")
	}
}

func TestChecksumStable(t *testing.T) {
	a := MustNew(32, 32)
	b := MustNew(32, 32)
	if a.Checksum() != b.Checksum() {
		t.Error("identical buffers should checksum equal")
	}
	b.Set(0, 0, colorspace.Opaque(1, 0, 0))
	if a.Checksum() == b.Checksum() {
		t.Error("differing buffers should checksum differently")
	}
}

func TestOwnerInterleaving(t *testing.T) {
	// Tiles 0..7 with 4 GPUs: owners cycle 0,1,2,3,0,1,2,3.
	for tile := 0; tile < 8; tile++ {
		if got := OwnerOf(tile, 4); got != tile%4 {
			t.Errorf("OwnerOf(%d, 4) = %d", tile, got)
		}
	}
}

func TestOwnedTilesPartition(t *testing.T) {
	const tilesX, tilesY, n = 20, 16, 8
	seen := make([]int, tilesX*tilesY)
	total := 0
	for gpu := 0; gpu < n; gpu++ {
		tiles := OwnedTiles(tilesX, tilesY, n, gpu)
		for _, tl := range tiles {
			if OwnerOf(tl, n) != gpu {
				t.Fatalf("tile %d listed for gpu %d but owned by %d", tl, gpu, OwnerOf(tl, n))
			}
			seen[tl]++
		}
		total += len(tiles)
	}
	if total != tilesX*tilesY {
		t.Fatalf("partition covers %d tiles, want %d", total, tilesX*tilesY)
	}
	for tl, c := range seen {
		if c != 1 {
			t.Fatalf("tile %d covered %d times", tl, c)
		}
	}
}

func TestOwnerOfZeroGPUs(t *testing.T) {
	if got := OwnerOf(0, 0); got != -1 {
		t.Errorf("OwnerOf(0, 0) = %d, want -1", got)
	}
}

var benchSink *Buffer

// BenchmarkNew measures building a cleared 1280×1024 buffer, the simulated
// screen size.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = MustNew(1280, 1024)
	}
}

// BenchmarkCopyDirtyFrom measures refilling a work buffer in place from a
// 1280×1024 target with a quarter of its tiles dirty, alternating between two
// sources with different dirty sets so each call copies and clears tiles.
func BenchmarkCopyDirtyFrom(b *testing.B) {
	var srcs [2]*Buffer
	for k := range srcs {
		srcs[k] = MustNew(1280, 1024)
		for tl := k; tl < srcs[k].TileCount(); tl += 4 {
			srcs[k].MarkDirty(tl)
		}
	}
	dst := MustNew(1280, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.CopyDirtyFrom(srcs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
