package sfr

import (
	"chopin/internal/exec"
	"chopin/internal/gpu"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

// GPUpd is the prior state-of-the-art sort-first scheme (Kim et al., MICRO
// 2017; paper Section III-A): primitives are split evenly across GPUs for a
// cooperative projection pre-pass, then primitive IDs are exchanged so each
// GPU owns exactly the primitives falling into its screen tiles, and
// finally each GPU runs the normal pipeline on its primitives.
//
// The exchange must preserve primitive order, so GPUs distribute their IDs
// strictly one GPU at a time — the sequential bottleneck of paper Fig. 4.
// Both paper optimizations are modelled: batching (projection of batch i+1
// overlaps distribution of batch i) and runahead execution (a GPU starts
// the normal pipeline on batches it has fully received while later batches
// are still in flight). IdealGPUpd is obtained with an ideal link config.
type GPUpd struct{}

// Name implements Scheme.
func (GPUpd) Name() string { return "GPUpd" }

// batchPiece is a contiguous triangle range of one draw inside a batch.
type batchPiece struct {
	draw   int // index into frame draws
	lo, hi int // triangle range [lo, hi)
}

// batch is a primitive batch: the unit of the batching optimization. It
// holds at most one piece per draw.
type batch struct {
	pieces []batchPiece
	tris   int
}

// makeBatches slices a draw range into batches of at most batchSize
// triangles, never splitting across the range boundary.
func makeBatches(draws []primitive.DrawCommand, start, end, batchSize int) []batch {
	if batchSize < 1 {
		batchSize = 1
	}
	var out []batch
	cur := batch{}
	for di := start; di < end; di++ {
		n := draws[di].TriangleCount()
		lo := 0
		for lo < n {
			room := batchSize - cur.tris
			take := n - lo
			if take > room {
				take = room
			}
			cur.pieces = append(cur.pieces, batchPiece{draw: di, lo: lo, hi: lo + take})
			cur.tris += take
			lo += take
			if cur.tris == batchSize {
				out = append(out, cur)
				cur = batch{}
			}
		}
	}
	if cur.tris > 0 {
		out = append(out, cur)
	}
	return out
}

// Run implements Scheme.
func (GPUpd) Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	bn, err := newBinner(sys, fr)
	if err != nil {
		return nil, err
	}
	r := exec.New("GPUpd", sys, fr)
	r.OwnTiles()
	eng := sys.Eng
	n := sys.Cfg.NumGPUs

	r.RunSegments(func(seg exec.Segment, done func()) {
		segStart := eng.Now()
		batches := makeBatches(fr.Draws, seg.Start, seg.End, sys.Cfg.BatchSize)

		var projAllDone, distAllDone sim.Cycle
		projected := 0   // batches fully projected
		distributed := 0 // batches fully distributed

		// bar retires the segment's sub-draws; it seals once the last batch
		// has been fully distributed.
		bar := r.TracedBarrier("segment draws", func() {
			// Attribute the wall clock: projection up to projAllDone,
			// distribution up to distAllDone (overlapped projection charged
			// to projection), the rest to the normal pipeline.
			r.AttributePhases(segStart, []exec.Mark{
				{Tag: stats.PhaseProjection, At: projAllDone},
				{Tag: stats.PhaseDistribution, At: distAllDone},
			}, stats.PhaseNormal)
			done()
		})

		// submitBatch runs the normal pipeline on dst's share of batch b
		// (runahead execution: called as soon as the batch is delivered).
		submitBatch := func(b *batch, dst int) {
			for _, p := range b.pieces {
				sub := bn.sub(p.draw, p.lo, p.hi, dst)
				if len(sub.Tris) == 0 {
					continue
				}
				bar.Add(1)
				sys.GPUs[dst].SubmitDraw(sub, fr.View, fr.Proj, gpu.DrawOpts{
					OnDone: func(*raster.DrawResult) { bar.Done() },
				})
			}
		}

		// Distribution of batch bi: each source GPU in turn sends, to each
		// destination, the IDs of the triangles in its projection slice that
		// cover that destination's tiles (4 bytes per ID).
		distStarted := make([]bool, len(batches))
		var distribute func(bi int)
		distribute = func(bi int) {
			b := &batches[bi]
			// counts[src][dst] = IDs src sends to dst. Source GPU src
			// projected the batch's triangles [tris·src/n, tris·(src+1)/n).
			counts := make([][]int64, n)
			for src := 0; src < n; src++ {
				counts[src] = make([]int64, n)
			}
			idx, from := 0, 0 // batch position and the source GPU projecting it
			for _, p := range b.pieces {
				for lo := p.lo; lo < p.hi; {
					for idx >= b.tris*(from+1)/n {
						from++
					}
					hi := min(p.hi, lo+b.tris*(from+1)/n-idx)
					bn.count(counts[from], from, p.draw, lo, hi)
					idx += hi - lo
					lo = hi
				}
			}
			pendingMsgs := 0
			src := 0
			var sendFrom func()
			finishBatch := func() {
				distributed++
				distAllDone = max(distAllDone, eng.Now())
				for dst := 0; dst < n; dst++ {
					submitBatch(b, dst)
				}
				if bi+1 < len(batches) {
					// Batching: start the next batch's distribution if its
					// projection (which overlapped this distribution) is
					// already done; otherwise its projection callback will.
					if projected >= bi+2 && !distStarted[bi+1] {
						distStarted[bi+1] = true
						distribute(bi + 1)
					}
					return
				}
				bar.Seal()
			}
			msgDone := func() {
				pendingMsgs--
				if pendingMsgs != 0 {
					return
				}
				src++
				if src < n {
					sendFrom()
					return
				}
				finishBatch()
			}
			sendFrom = func() {
				pendingMsgs = 0
				for dst := 0; dst < n; dst++ {
					if counts[src][dst] == 0 {
						continue
					}
					pendingMsgs++
					sys.Fabric.Send(src, dst, counts[src][dst]*4, interconnect.ClassPrimDist, msgDone)
				}
				if pendingMsgs == 0 {
					// Nothing to send: the turn token still crosses the
					// fabric to the next GPU (a control handshake).
					sys.Fabric.SendControl(src, (src+1)%n, 4, func() {
						src++
						if src < n {
							sendFrom()
						} else {
							finishBatch()
						}
					})
				}
			}
			sendFrom()
		}

		// Projection: every batch is projected cooperatively; each GPU
		// handles an even slice. Batches are issued back-to-back; per-GPU
		// geometry units serialize them naturally.
		for bi := range batches {
			bi := bi
			b := &batches[bi]
			per := (b.tris + n - 1) / n
			remaining := n
			for g := 0; g < n; g++ {
				sys.GPUs[g].SubmitProjection(per, func() {
					remaining--
					if remaining != 0 {
						return
					}
					projected++
					projAllDone = max(projAllDone, eng.Now())
					// Start distribution if it is this batch's turn.
					if bi == distributed && !distStarted[bi] {
						distStarted[bi] = true
						distribute(bi)
					}
				})
			}
		}
		if len(batches) == 0 {
			bar.Seal()
		}
	})
	return finishRun(r, sys, fr)
}
