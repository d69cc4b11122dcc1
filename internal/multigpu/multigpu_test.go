package multigpu

import (
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/framebuffer"
	"chopin/internal/gpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/vecmath"
)

// newSys builds a system, failing the test on config errors.
func newSys(t *testing.T, cfg Config, w, h int) *System {
	t.Helper()
	sys, err := New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumGPUs != 8 {
		t.Errorf("NumGPUs = %d", cfg.NumGPUs)
	}
	if cfg.GroupThreshold != 4096 {
		t.Errorf("GroupThreshold = %d", cfg.GroupThreshold)
	}
	if cfg.Link.BytesPerCycle != 64 || cfg.Link.LatencyCycles != 200 {
		t.Errorf("link = %+v", cfg.Link)
	}
	if !cfg.UseCompScheduler || cfg.SchedulerQuantum != 1 {
		t.Errorf("scheduler config = %+v", cfg)
	}
}

func TestNewSystemLayout(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 1280, 1024)
	if len(sys.GPUs) != 8 {
		t.Fatalf("GPUs = %d", len(sys.GPUs))
	}
	if sys.Width() != 1280 || sys.Height() != 1024 {
		t.Errorf("dims = %dx%d", sys.Width(), sys.Height())
	}
	if sys.TileCount() != 320 {
		t.Errorf("tiles = %d", sys.TileCount())
	}
}

func TestMasksPartitionScreen(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	owned := make([]int, sys.TileCount())
	for g := 0; g < 8; g++ {
		mask := sys.Mask(g)
		if len(mask) != sys.TileCount() {
			t.Fatalf("mask length = %d", len(mask))
		}
		for tl, own := range mask {
			if own {
				owned[tl]++
				if sys.Owner(tl) != g {
					t.Fatalf("tile %d in mask of %d but owned by %d", tl, g, sys.Owner(tl))
				}
			}
		}
	}
	for tl, c := range owned {
		if c != 1 {
			t.Fatalf("tile %d covered %d times", tl, c)
		}
	}
}

func TestOwnedDirtyTiles(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	fb := sys.GPUs[0].Target(0)
	fb.ClearDirty()
	fb.MarkDirty(8)  // owned by GPU 0 (8 % 8)
	fb.MarkDirty(9)  // owned by GPU 1
	fb.MarkDirty(16) // owned by GPU 0
	tiles := sys.OwnedDirtyTiles(fb, 0)
	if len(tiles) != 2 || tiles[0] != 8 || tiles[1] != 16 {
		t.Errorf("tiles = %v", tiles)
	}
	tiles = sys.OwnedDirtyTiles(fb, 1)
	if len(tiles) != 1 || tiles[0] != 9 {
		t.Errorf("tiles = %v", tiles)
	}
	if tiles = sys.OwnedDirtyTiles(fb, 2); tiles != nil {
		t.Errorf("GPU 2 owns no dirty tile, got %v", tiles)
	}

	// A buffer that is no GPU's target, such as a transparent layer, is
	// scanned under the same ownership.
	layer := framebuffer.MustNew(640, 480)
	layer.MarkDirty(3)  // owned by GPU 3
	layer.MarkDirty(11) // owned by GPU 3
	layer.MarkDirty(12) // owned by GPU 4
	tiles = sys.OwnedDirtyTiles(layer, 3)
	if len(tiles) != 2 || tiles[0] != 3 || tiles[1] != 11 {
		t.Errorf("layer tiles = %v", tiles)
	}
	if tiles = sys.OwnedDirtyTiles(layer, 0); tiles != nil {
		t.Errorf("layer: GPU 0 owns no dirty tile, got %v", tiles)
	}
}

func TestPixelCount(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	// Tile 0 is full 64x64; the bottom-right tile is 64x(480-7*64)=64x32.
	if got := sys.PixelCount([]int{0}); got != 64*64 {
		t.Errorf("PixelCount(0) = %d", got)
	}
	last := sys.TileCount() - 1
	if got := sys.PixelCount([]int{0, last}); got != 64*64+64*32 {
		t.Errorf("PixelCount(0,last) = %d", got)
	}
	if got := sys.PixelCount(nil); got != 0 {
		t.Errorf("PixelCount(nil) = %d", got)
	}
}

func TestAssembleImagePicksOwners(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 256, 128) // 4x2 tiles, owners 0..7
	red := colorspace.Opaque(1, 0, 0)
	// Each GPU paints a pixel in a tile it owns and one it does not.
	for g, gp := range sys.GPUs {
		fb := gp.Target(0)
		x0, y0, _, _ := fb.TileRect(g)
		fb.Set(x0, y0, red) // owned tile g
		other := (g + 1) % 8
		x1, y1, _, _ := fb.TileRect(other)
		fb.Set(x1, y1, colorspace.Opaque(0, 1, 0)) // not owned
	}
	img := sys.AssembleImage(0)
	for tl := 0; tl < sys.TileCount(); tl++ {
		x, y, _, _ := img.TileRect(tl)
		if img.At(x, y) != red {
			t.Errorf("tile %d corner = %+v, want owner's red", tl, img.At(x, y))
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumGPUs = 0
	if _, err := New(cfg, 64, 64); err == nil {
		t.Error("expected error for zero GPUs")
	}
	if _, err := New(DefaultConfig(), 0, 64); err == nil {
		t.Error("expected error for zero width")
	}
}

// TestSubmitDrawsEquivalence: a SubmitDraws batch with EngineWorkers > 1
// must be byte-identical to the sequential SubmitDraw loop — same
// framebuffers, same completion cycles — and parallel-engine wiring must
// not leak into the architectural fingerprint.
func TestSubmitDrawsEquivalence(t *testing.T) {
	const w, h = 128, 128
	draw := func(id int, z, x0, y0, x1, y1 float64) primitive.DrawCommand {
		c := colorspace.Opaque(float64(id%3)/2, 1, 0.5)
		v := func(x, y float64) primitive.Vertex {
			return primitive.Vertex{Position: vecmath.Vec3{X: x, Y: y, Z: -z}, Color: c}
		}
		return primitive.DrawCommand{
			ID: id,
			Tris: []primitive.Triangle{
				{V: [3]primitive.Vertex{v(x0, y0), v(x1, y0), v(x1, y1)}},
				{V: [3]primitive.Vertex{v(x0, y0), v(x1, y1), v(x0, y1)}},
			},
			Model: vecmath.Identity(),
			State: primitive.DefaultState(),
		}
	}
	view := vecmath.Identity()
	proj := vecmath.Orthographic(0, w, h, 0, 1, 10)

	run := func(workers int) ([]uint64, []sim.Cycle, string) {
		cfg := DefaultConfig()
		cfg.NumGPUs = 4
		cfg.EngineWorkers = workers
		sys := newSys(t, cfg, w, h)
		var dones []sim.Cycle
		for i := 0; i < 6; i++ {
			reqs := make([]DrawReq, cfg.NumGPUs)
			for g := 0; g < cfg.NumGPUs; g++ {
				reqs[g] = DrawReq{GPU: g, Draw: draw(i, float64(1+i%4), float64(8*i), float64(4*i), float64(40+8*i), float64(60+4*i)),
					Opts: gpu.DrawOpts{OnDone: func(*raster.DrawResult) { dones = append(dones, sys.Eng.Now()) }}}
			}
			sys.SubmitDraws(view, proj, reqs)
		}
		sys.Eng.Run()
		sums := make([]uint64, cfg.NumGPUs)
		for g := range sys.GPUs {
			sums[g] = sys.GPUs[g].Target(0).Checksum()
		}
		return sums, dones, cfg.Fingerprint()
	}

	seqSums, seqDones, seqFP := run(0)
	parSums, parDones, parFP := run(4)
	if seqFP != parFP {
		t.Errorf("EngineWorkers leaked into Fingerprint: %s vs %s", seqFP, parFP)
	}
	if len(seqDones) != len(parDones) {
		t.Fatalf("completions: %d sequential vs %d parallel", len(seqDones), len(parDones))
	}
	for i := range seqDones {
		if seqDones[i] != parDones[i] {
			t.Fatalf("completion %d at cycle %d sequential vs %d parallel", i, seqDones[i], parDones[i])
		}
	}
	for g := range seqSums {
		if seqSums[g] != parSums[g] {
			t.Fatalf("gpu %d framebuffer checksum %x sequential vs %x parallel", g, seqSums[g], parSums[g])
		}
	}
}

// TestEngineWorkersWiring pins that New hands EngineWorkers to the engine's
// Fanout pool, with an ideal link as with a real one.
func TestEngineWorkersWiring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumGPUs = 4
	cfg.EngineWorkers = 3
	sys := newSys(t, cfg, 64, 64)
	if got := sys.Eng.Workers(); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}

	cfg.Link.Ideal = true
	sys = newSys(t, cfg, 64, 64)
	if got := sys.Eng.Workers(); got != 3 {
		t.Errorf("ideal link: workers = %d, want 3", got)
	}
}
