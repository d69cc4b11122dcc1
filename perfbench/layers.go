package main

import (
	"bytes"
	"fmt"
	"time"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/runrec"
)

// The traced run's layer replays: each times one layer's public functions
// on the workload's own inputs, from outside the simulator.

// repeat calls f until it has run minReps times and for at least minDur,
// and returns the duration of each call in ns.
func repeat(minReps int, minDur time.Duration, f func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < minDur {
		t := time.Now()
		f()
		out = append(out, float64(time.Since(t)))
	}
	return out
}

// rasterReplay renders every frame with raster.New + Renderer.Draw, the
// way the reference image is built, and returns the median ns per
// generated fragment and the fragment count of one replay.
func rasterReplay(frames []*primitive.Frame, cfg raster.Config, tr *tracer) (nsPerFrag float64, frags int) {
	once := func() int {
		n := 0
		for _, fr := range frames {
			targets := map[int]*framebuffer.Buffer{}
			rend := raster.New(framebuffer.MustNew(fr.Width, fr.Height), cfg)
			rend.SetTextures(fr.Textures)
			targets[0] = rend.Target()
			for _, d := range fr.Draws {
				rt := d.State.RenderTarget
				if targets[rt] == nil {
					targets[rt] = framebuffer.MustNew(fr.Width, fr.Height)
				}
				_ = rend.SetTarget(targets[rt])
				n += rend.Draw(d, fr.View, fr.Proj).FragsGenerated
			}
		}
		return n
	}
	c := tr.start()
	times := repeat(1, 300*time.Millisecond, func() { frags = once() })
	tr.end("replay.raster", c)
	if frags == 0 {
		return 0, 0
	}
	return median(times) / float64(frags), frags
}

// framebufferReplay times one framebuffer.New + Clear at w×h, in µs.
func framebufferReplay(w, h int, tr *tracer) float64 {
	c := tr.start()
	times := repeat(5, 200*time.Millisecond, func() {
		fb := framebuffer.MustNew(w, h)
		fb.Clear(colorspace.RGBA{}, 1)
	})
	tr.end("replay.framebuffer", c)
	return median(times) / 1e3
}

// mergeReplay depth-merges every GPU's finished render target 0 of sys
// into one buffer with composite.DepthMergeRegion and returns the median
// ns per merged pixel. The GPU targets are only read.
func mergeReplay(sys *multigpu.System, tr *tracer) float64 {
	if sys == nil {
		return 0
	}
	w, h := sys.Width(), sys.Height()
	var srcs []*framebuffer.Buffer
	for _, g := range sys.GPUs {
		srcs = append(srcs, g.Target(0))
	}
	dst := framebuffer.MustNew(w, h)
	var perPx []float64
	c := tr.start()
	repeat(5, 200*time.Millisecond, func() {
		dst.Clear(colorspace.RGBA{}, 1)
		t := time.Now()
		px := 0
		for _, src := range srcs {
			px += composite.DepthMergeRegion(dst, src, colorspace.CmpLess, 0, h, nil)
		}
		if px > 0 {
			perPx = append(perPx, float64(time.Since(t))/float64(px))
		}
	})
	tr.end("replay.composite", c)
	return median(perPx)
}

// planReplay builds and checks each plan with plan.For + plan.Check and
// returns the median µs per plan.
func planReplay(specs []planSpec, h int, tr *tracer) (float64, error) {
	if len(specs) == 0 {
		return 0, nil
	}
	var err error
	c := tr.start()
	times := repeat(5, 100*time.Millisecond, func() {
		for _, s := range specs {
			p, e := plan.For(s.alg, s.n, h, 0, plan.AssocCommutative, s.diameter)
			if e == nil {
				e = plan.Check(p)
			}
			if e != nil && err == nil {
				err = fmt.Errorf("plan %s n=%d: %w", s.alg, s.n, e)
			}
		}
	})
	tr.end("replay.plan", c)
	return median(times) / 1e3 / float64(len(specs)), err
}

// recordReplay writes a run record of one pass's simulations with
// runrec's Record.Write and returns the median ms per write.
func recordReplay(workload string, sims []simOutcome, tr *tracer) (float64, error) {
	rec := runrec.NewRecorder(runrec.Meta{Tool: "perfbench", GitRev: "unknown", Experiments: []string{workload}})
	for _, o := range sims {
		if o.stats == nil {
			continue
		}
		key := runrec.Key{Experiment: workload, Scheme: o.spec.label, Bench: o.spec.bench, GPUs: o.spec.cfg.NumGPUs}
		rec.Add(runrec.FromStats(key, o.spec.cfg.Fingerprint(), o.stats))
	}
	r := rec.Record()
	var buf bytes.Buffer
	var err error
	c := tr.start()
	times := repeat(5, 100*time.Millisecond, func() {
		buf.Reset()
		if e := r.Write(&buf); e != nil && err == nil {
			err = e
		}
	})
	tr.end("replay.runrec", c)
	return median(times) / 1e6, err
}
