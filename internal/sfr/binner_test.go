package sfr

import (
	"reflect"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/framebuffer"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/vecmath"
)

// binnerTri is a flat triangle through three pixel positions at object depth
// z under binnerFrame's orthographic camera (visible depths 1..10).
func binnerTri(z float64, pts ...[2]float64) primitive.Triangle {
	var t primitive.Triangle
	for i := range t.V {
		t.V[i] = primitive.Vertex{
			Position: vecmath.Vec3{X: pts[i][0], Y: pts[i][1], Z: -z},
			Color:    colorspace.Opaque(1, 1, 1),
		}
	}
	return t
}

// TestBinner checks the owner routing GPUpd and sort-middle share on a
// 256×192 screen (4×3 tiles) over 5 GPUs, so tile ownership wraps the rows.
func TestBinner(t *testing.T) {
	const w, h, n = 256, 192, 5
	cases := []struct {
		name  string
		tri   primitive.Triangle
		tiles [4]int // inclusive tile rectangle tx0, ty0, tx1, ty1; tx0 < 0 = none
	}{
		{"one tile", binnerTri(5, [2]float64{5, 5}, [2]float64{60, 5}, [2]float64{5, 60}), [4]int{0, 0, 0, 0}},
		{"top row", binnerTri(5, [2]float64{1, 10}, [2]float64{255, 10}, [2]float64{128, 50}), [4]int{0, 0, 3, 0}},
		{"interior 2x2", binnerTri(5, [2]float64{70, 70}, [2]float64{190, 70}, [2]float64{70, 150}), [4]int{1, 1, 2, 2}},
		{"partly off-screen", binnerTri(5, [2]float64{-50, -50}, [2]float64{100, -50}, [2]float64{-50, 100}), [4]int{0, 0, 1, 1}},
		{"bottom-right corner", binnerTri(5, [2]float64{200, 150}, [2]float64{300, 150}, [2]float64{200, 250}), [4]int{3, 2, 3, 2}},
		{"off-screen", binnerTri(5, [2]float64{-50, -50}, [2]float64{-10, -50}, [2]float64{-50, -10}), [4]int{-1}},
		{"near-clipped", binnerTri(0.5, [2]float64{5, 5}, [2]float64{60, 5}, [2]float64{5, 60}), [4]int{-1}},
	}
	d := primitive.DrawCommand{
		ID:         7,
		Model:      vecmath.Identity(),
		State:      primitive.RenderState{RenderTarget: 2, DepthBuffer: 2, DepthFunc: colorspace.CmpLessEqual, BlendOp: colorspace.BlendOver},
		VertexCost: 1.5,
		PixelCost:  2.5,
		TextureID:  3,
	}
	for _, c := range cases {
		d.Tris = append(d.Tris, c.tri)
	}
	fr := &primitive.Frame{
		Draws:  []primitive.DrawCommand{d},
		View:   vecmath.Identity(),
		Proj:   vecmath.Orthographic(0, w, h, 0, 1, 10),
		Width:  w,
		Height: h,
	}
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = n
	sys, err := multigpu.New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := newBinner(sys, fr)
	if err != nil {
		t.Fatal(err)
	}
	const tilesX = w / framebuffer.TileSize

	t.Run("mask", func(t *testing.T) {
		for ti, c := range cases {
			var want uint64
			if r := c.tiles; r[0] >= 0 {
				for ty := r[1]; ty <= r[3]; ty++ {
					for tx := r[0]; tx <= r[2]; tx++ {
						want |= 1 << uint(sys.Owner(ty*tilesX+tx))
					}
				}
			}
			if got := bn.mask(0, ti); got != want {
				t.Errorf("%s: mask %05b, want %05b", c.name, got, want)
			}
		}
	})

	t.Run("count", func(t *testing.T) {
		for src := 0; src < n; src++ {
			got := make([]int64, n)
			bn.count(got, src, 0, 0, len(cases))
			want := make([]int64, n)
			for ti := range cases {
				for dst := 0; dst < n; dst++ {
					if dst != src && bn.mask(0, ti)&(1<<uint(dst)) != 0 {
						want[dst]++
					}
				}
			}
			if got[src] != 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("src %d: counts %v, want %v", src, got, want)
			}
		}
	})

	t.Run("sub", func(t *testing.T) {
		const lo, hi = 1, 5
		for dst := 0; dst < n; dst++ {
			s := bn.sub(0, lo, hi, dst)
			var want []primitive.Triangle
			for ti := lo; ti < hi; ti++ {
				if bn.mask(0, ti)&(1<<uint(dst)) != 0 {
					want = append(want, d.Tris[ti])
				}
			}
			if !reflect.DeepEqual(s.Tris, want) {
				t.Errorf("dst %d: sub-draw triangles %v, want %v in draw order", dst, s.Tris, want)
			}
			s.Tris = d.Tris
			if !reflect.DeepEqual(s, d) {
				t.Errorf("dst %d: sub-draw %+v lost the parent's fields %+v", dst, s, d)
			}
		}
	})
}
