package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/primitive"
)

// TestQuickDirectSendSchedulerConverges: for any GPU count and any order
// of readiness and session completions, the composition arbiter over a
// direct-send plan performs exactly n·(n−1) directed transfers, never
// double-books a port, and terminates.
func TestQuickDirectSendSchedulerConverges(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%15
		rng := rand.New(rand.NewSource(seed))
		p, err := plan.DirectSend(n, 8)
		if err != nil {
			return false
		}
		ps, err := NewPlanScheduler(p)
		if err != nil {
			return false
		}

		readyOrder := rng.Perm(n)
		readyIdx := 0
		var inflight []plan.Session
		sending := make([]bool, n)
		receiving := make([]bool, n)
		transfers := map[[2]int]bool{}
		for steps := 0; !ps.Done(); steps++ {
			if steps > 10000 {
				return false // livelock
			}
			// Randomly interleave readiness events and completions.
			if readyIdx < n && (len(inflight) == 0 || rng.Intn(2) == 0) {
				ps.SetReady(readyOrder[readyIdx])
				readyIdx++
			} else if len(inflight) > 0 {
				i := rng.Intn(len(inflight))
				s := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				key := [2]int{s.Sender, s.Receiver}
				if transfers[key] {
					return false // duplicate directed transfer
				}
				transfers[key] = true
				sending[s.Sender], receiving[s.Receiver] = false, false
				if ps.Complete(s) != nil {
					return false
				}
			}
			for _, s := range ps.NextSessions() {
				if sending[s.Sender] || receiving[s.Receiver] {
					return false // port double-booked
				}
				sending[s.Sender], receiving[s.Receiver] = true, true
				inflight = append(inflight, s)
			}
		}
		return len(transfers) == n*(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransparentComposerConverges: any readiness order reduces to a
// single holder of the full range in exactly n−1 merges.
func TestQuickTransparentComposerConverges(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%16
		rng := rand.New(rand.NewSource(seed))
		tc := NewTransparentComposer(n)
		order := rng.Perm(n)
		idx := 0
		merges := 0
		var pending []Merge
		for steps := 0; !tc.Done(); steps++ {
			if steps > 10000 {
				return false
			}
			if idx < n && (len(pending) == 0 || rng.Intn(2) == 0) {
				tc.SetReady(order[idx])
				idx++
			} else if len(pending) > 0 {
				i := rng.Intn(len(pending))
				m := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				tc.Complete(m)
				merges++
			}
			pending = append(pending, tc.NextMerges()...)
		}
		holder, ok := tc.FinalHolder()
		return ok && holder >= 0 && merges == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDivideRangeInvariants: chunks partition any range in order.
func TestQuickDivideRangeInvariants(t *testing.T) {
	f := func(sizes []uint16, nRaw uint8) bool {
		n := 1 + int(nRaw)%12
		draws := make([]primitive.DrawCommand, len(sizes))
		for i, s := range sizes {
			draws[i] = primitive.DrawCommand{Tris: make([]primitive.Triangle, 1+int(s)%500)}
		}
		chunks, err := DivideRange(draws, 0, len(draws), n)
		if err != nil {
			return false
		}
		pos := 0
		for _, c := range chunks {
			if c[0] != pos || c[1] < c[0] {
				return false
			}
			pos = c[1]
		}
		return pos == len(draws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickReorderIsPermutation: reordering never loses, duplicates, or
// mutates a draw (modulo renumbered IDs), and never increases group count.
func TestQuickReorderIsPermutation(t *testing.T) {
	f := func(spec []uint8) bool {
		draws := make([]primitive.DrawCommand, len(spec))
		for i, b := range spec {
			d := primitive.DrawCommand{
				ID:    i,
				Tris:  make([]primitive.Triangle, 1+int(b)%40),
				State: primitive.DefaultState(),
			}
			switch b % 5 {
			case 1:
				d.State.DepthFunc = colorspace.CmpLessEqual
			case 2:
				d.State.BlendOp = colorspace.BlendOver
				d.State.DepthWrite = false
			case 3:
				d.State.RenderTarget = int(b) % 3
				d.State.DepthBuffer = d.State.RenderTarget
			case 4:
				d.State.DepthWrite = false
			}
			draws[i] = d
		}
		out := Reorder(draws)
		if len(out) != len(draws) {
			return false
		}
		// Multiset of (triangle count, state) must be preserved.
		count := map[[2]uint64]int{}
		for _, d := range draws {
			count[[2]uint64{uint64(d.TriangleCount()), stateKey(&d.State)}]++
		}
		for _, d := range out {
			count[[2]uint64{uint64(d.TriangleCount()), stateKey(&d.State)}]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		if len(draws) > 0 &&
			len(primitive.BuildGroups(out)) > len(primitive.BuildGroups(draws)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
