package core

import (
	"fmt"

	"chopin/internal/composite/plan"
)

// PlanScheduler drives one composition group through an exchange plan with
// the paper's Fig. 12 arbitration: a session starts only when both parties
// are ready and both ports are free. Over multi-round plans a session in
// round r may start only when its sender and receiver have both completed
// all their round r−1 sessions, so every merge a sender forwards in round r
// already includes everything it accumulated in earlier rounds.
//
// Table I maps onto it as follows: Ready, Sending and Receiving are the
// per-GPU fields; SentGPUs and ReceivedGPUs are the per-session state of the
// direct-send round (plan.DirectSend); and CGID is replaced by one scheduler
// per composition group.
//
// Like the hardware scheduler it models, the scan order is deterministic
// (ascending round, then the plan's session order — ascending sender, then
// receiver, for direct-send), so identical inputs schedule identical
// session sequences.
type PlanScheduler struct {
	p         *plan.Plan
	ready     []bool
	sending   []bool
	receiving []bool
	round     []int     // per-GPU current round index (len(Rounds) = finished)
	state     [][]uint8 // state[r][i]: 0 unstarted, 1 in flight, 2 complete
	left      [][]int   // left[r][g]: g's incomplete sessions in round r
	finished  []bool
	done      int
}

// NewPlanScheduler returns a scheduler for the given plan. The plan is not
// copied; it must not be mutated while scheduled.
func NewPlanScheduler(p *plan.Plan) (*PlanScheduler, error) {
	if p == nil || p.N < 1 || p.N > 64 {
		return nil, fmt.Errorf("core: plan scheduler needs a plan for 1–64 GPUs")
	}
	ps := &PlanScheduler{
		p:         p,
		ready:     make([]bool, p.N),
		sending:   make([]bool, p.N),
		receiving: make([]bool, p.N),
		round:     make([]int, p.N),
		state:     make([][]uint8, len(p.Rounds)),
		left:      make([][]int, len(p.Rounds)),
		finished:  make([]bool, p.N),
	}
	for r, round := range p.Rounds {
		ps.state[r] = make([]uint8, len(round))
		ps.left[r] = make([]int, p.N)
		for _, s := range round {
			if s.Sender < 0 || s.Sender >= p.N || s.Receiver < 0 || s.Receiver >= p.N {
				return nil, fmt.Errorf("core: plan session %+v out of range for %d GPUs", s, p.N)
			}
			if !p.IsLive(s.Sender) || !p.IsLive(s.Receiver) {
				return nil, fmt.Errorf("core: plan session %+v touches a dead GPU", s)
			}
			ps.left[r][s.Sender]++
			ps.left[r][s.Receiver]++
		}
	}
	// Dead GPUs of a repair plan hold no sessions and never report ready:
	// finish them at construction so Done() tracks survivors only.
	for g := 0; g < p.N; g++ {
		if !p.IsLive(g) {
			ps.round[g] = len(p.Rounds)
			ps.finished[g] = true
			ps.done++
		}
	}
	return ps, nil
}

// SetReady marks GPU g's sub-image as generated; its sessions become
// eligible. GPUs with no sessions at all complete immediately.
func (ps *PlanScheduler) SetReady(g int) {
	ps.ready[g] = true
	ps.advance(g)
}

// Round returns GPU g's current round index (len(plan.Rounds) once g has
// finished every round).
func (ps *PlanScheduler) Round(g int) int { return ps.round[g] }

// advance moves g past rounds in which it has no remaining sessions and
// records completion when it runs out of rounds.
func (ps *PlanScheduler) advance(g int) {
	for ps.round[g] < len(ps.p.Rounds) && ps.left[ps.round[g]][g] == 0 {
		ps.round[g]++
	}
	if ps.round[g] == len(ps.p.Rounds) && !ps.finished[g] {
		ps.finished[g] = true
		ps.done++
	}
}

// NextSessions greedily starts every session that may begin now, marking
// the chosen ports busy. A session is startable when it is unstarted, both
// parties are ready and sit in its round, the sender's egress is free, and
// the receiver's ingress is free.
func (ps *PlanScheduler) NextSessions() []plan.Session {
	var out []plan.Session
	for r, round := range ps.p.Rounds {
		for i, s := range round {
			if ps.state[r][i] != 0 {
				continue
			}
			if ps.round[s.Sender] != r || ps.round[s.Receiver] != r {
				continue
			}
			if !ps.ready[s.Sender] || !ps.ready[s.Receiver] {
				continue
			}
			if ps.sending[s.Sender] || ps.receiving[s.Receiver] {
				continue
			}
			ps.state[r][i] = 1
			ps.sending[s.Sender] = true
			ps.receiving[s.Receiver] = true
			out = append(out, s)
		}
	}
	return out
}

// Complete records that the session finished (its pixels are merged at the
// receiver): ports free, round bookkeeping updates, and either party that
// drained its round advances. Completing a session that was never scheduled
// is a caller bug and returns an error.
func (ps *PlanScheduler) Complete(s plan.Session) error {
	r := ps.round[s.Sender]
	if r >= len(ps.p.Rounds) {
		return fmt.Errorf("core: completing session %+v for a finished sender", s)
	}
	for i, cand := range ps.p.Rounds[r] {
		if cand.Sender != s.Sender || cand.Receiver != s.Receiver || ps.state[r][i] != 1 {
			continue
		}
		ps.state[r][i] = 2
		ps.sending[s.Sender] = false
		ps.receiving[s.Receiver] = false
		ps.left[r][s.Sender]--
		ps.left[r][s.Receiver]--
		ps.advance(s.Sender)
		ps.advance(s.Receiver)
		return nil
	}
	return fmt.Errorf("core: completing unscheduled plan session %+v", s)
}

// Done reports whether every GPU has completed every round.
func (ps *PlanScheduler) Done() bool { return ps.done == ps.p.N }

// CompletedRounds returns the number of leading rounds every live GPU has
// fully completed — the checkpoint a plan repair restarts from.
func (ps *PlanScheduler) CompletedRounds() int {
	min := len(ps.p.Rounds)
	for g := 0; g < ps.p.N; g++ {
		if !ps.p.IsLive(g) {
			continue
		}
		if ps.round[g] < min {
			min = ps.round[g]
		}
	}
	return min
}

// PendingSessions counts sessions not yet completed, for watchdog
// diagnostics.
func (ps *PlanScheduler) PendingSessions() int {
	n := 0
	for r := range ps.state {
		for _, st := range ps.state[r] {
			if st != 2 {
				n++
			}
		}
	}
	return n
}

// ReadyBits returns a bitmask of GPUs whose sub-images have been marked
// ready.
func (ps *PlanScheduler) ReadyBits() uint64 {
	var b uint64
	for g, ok := range ps.ready {
		if ok {
			b |= 1 << uint(g)
		}
	}
	return b
}

// Rounds returns the plan's round count.
func (ps *PlanScheduler) Rounds() int { return len(ps.p.Rounds) }
