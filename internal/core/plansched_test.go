package core

import (
	"testing"

	"chopin/internal/composite/plan"
)

// drivePlan runs a plan to completion through the scheduler, asserting port
// exclusivity and round gating at every step, and returns the completed
// session order.
func drivePlan(t *testing.T, p *plan.Plan) []plan.Session {
	t.Helper()
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < p.N; g++ {
		ps.SetReady(g)
	}
	var order []plan.Session
	for steps := 0; !ps.Done(); steps++ {
		if steps > p.N*p.N*len(p.Rounds)+16 {
			t.Fatalf("plan scheduler stalled after %d completed sessions", len(order))
		}
		batch := ps.NextSessions()
		if len(batch) == 0 {
			t.Fatalf("no startable sessions but not done (%d completed)", len(order))
		}
		sending := make(map[int]bool)
		receiving := make(map[int]bool)
		for _, s := range batch {
			if sending[s.Sender] || receiving[s.Receiver] {
				t.Fatalf("batch double-books a port: %+v", s)
			}
			sending[s.Sender] = true
			receiving[s.Receiver] = true
		}
		for _, s := range batch {
			if err := ps.Complete(s); err != nil {
				t.Fatal(err)
			}
			order = append(order, s)
		}
	}
	if got := len(order); got != p.Sessions() {
		t.Fatalf("completed %d sessions, want %d", got, p.Sessions())
	}
	return order
}

// TestPlanSchedulerAllPlans drives every planner to completion at a spread
// of group sizes, including the 64-GPU scale.
func TestPlanSchedulerAllPlans(t *testing.T) {
	const h = 64
	for _, n := range []int{1, 2, 3, 5, 8, 12, 16, 33, 48, 64} {
		for _, alg := range []plan.Algorithm{plan.AlgDirectSend, plan.AlgBinarySwap, plan.AlgRadixK, plan.AlgMixedRadix} {
			p, err := plan.For(alg, n, h, 0, plan.AssocCommutative, 1)
			if err != nil {
				continue // planner does not support this n
			}
			drivePlan(t, p)
		}
	}
}

// TestPlanSchedulerRoundGating pins that no round-1 session starts before
// both its parties drain round 0: with binary-swap n=4 and only GPUs 0 and
// 1 ready, the pair exchange of round 0 runs between them, but neither may
// enter round 1 (their round-1 peers 2 and 3 are still in round 0).
func TestPlanSchedulerRoundGating(t *testing.T) {
	p, err := plan.BinarySwap(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetReady(0)
	ps.SetReady(1)
	var completed int
	for {
		batch := ps.NextSessions()
		if len(batch) == 0 {
			break
		}
		for _, s := range batch {
			if s.Sender > 1 || s.Receiver > 1 {
				t.Fatalf("session %+v scheduled with GPUs 2,3 not ready", s)
			}
			if err := ps.Complete(s); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	if completed != 2 {
		t.Fatalf("completed %d sessions with half the group ready, want 2 (the 0↔1 pair)", completed)
	}
	if ps.Round(0) != 1 || ps.Round(1) != 1 {
		t.Fatalf("rounds after pair exchange: %d, %d; want 1, 1", ps.Round(0), ps.Round(1))
	}
	if ps.Done() {
		t.Fatal("scheduler done with GPUs 2,3 never ready")
	}
	// The stragglers arrive; the plan must now run to completion.
	ps.SetReady(2)
	ps.SetReady(3)
	for !ps.Done() {
		batch := ps.NextSessions()
		if len(batch) == 0 {
			t.Fatal("stalled after stragglers became ready")
		}
		for _, s := range batch {
			if err := ps.Complete(s); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	if completed != p.Sessions() {
		t.Fatalf("completed %d sessions, want %d", completed, p.Sessions())
	}
}

// TestPlanSchedulerErrors pins the misuse contract.
func TestPlanSchedulerErrors(t *testing.T) {
	if _, err := NewPlanScheduler(nil); err == nil {
		t.Error("NewPlanScheduler(nil): want error")
	}
	p, _ := plan.DirectSend(2, 8)
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetReady(0)
	ps.SetReady(1)
	if err := ps.Complete(plan.Session{Sender: 0, Receiver: 1}); err == nil {
		t.Error("Complete before NextSessions: want error")
	}
	batch := ps.NextSessions()
	if len(batch) != 2 {
		t.Fatalf("direct-send n=2 start batch = %d sessions, want 2", len(batch))
	}
	if err := ps.Complete(batch[0]); err != nil {
		t.Fatal(err)
	}
	if err := ps.Complete(batch[0]); err == nil {
		t.Error("double Complete: want error")
	}
}

// TestPlanSchedulerSingleGPU pins the degenerate group: one GPU, no
// sessions, done at SetReady.
func TestPlanSchedulerSingleGPU(t *testing.T) {
	p, err := plan.DirectSend(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Done() {
		t.Fatal("done before SetReady")
	}
	ps.SetReady(0)
	if !ps.Done() {
		t.Fatal("single-GPU group not done after SetReady")
	}
}

// directSendScheduler returns the paper's composition arbiter (Table I,
// Figs. 11–12) for n GPUs: a PlanScheduler over the direct-send plan.
func directSendScheduler(t *testing.T, n int) *PlanScheduler {
	t.Helper()
	p, err := plan.DirectSend(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestDirectSendSchedulerBounds pins the arbiter's domain: ready bits are
// one 64-bit word, so 1–64 GPUs are accepted and everything outside errors.
func TestDirectSendSchedulerBounds(t *testing.T) {
	for _, n := range []int{-1, 0, 65, 128} {
		if _, err := plan.DirectSend(n, 8); err == nil {
			t.Errorf("plan.DirectSend(%d): want error", n)
		}
		if _, err := NewPlanScheduler(&plan.Plan{N: n, Height: 8}); err == nil {
			t.Errorf("NewPlanScheduler(N=%d): want error", n)
		}
	}
	for _, n := range []int{1, 33, 64} {
		directSendScheduler(t, n)
	}
}

// driveFullExchange runs a full direct-send exchange among n ready GPUs,
// completing in-flight sessions one at a time in start order. It fails the
// test if a port is ever double-booked, a pair transfers twice, or the
// exchange stalls, and returns the scheduler and the completed transfers.
func driveFullExchange(t *testing.T, n int) (*PlanScheduler, map[[2]int]bool) {
	t.Helper()
	ps := directSendScheduler(t, n)
	for g := 0; g < n; g++ {
		ps.SetReady(g)
	}
	sending := make([]bool, n)
	receiving := make([]bool, n)
	transfers := map[[2]int]bool{}
	var inflight []plan.Session
	for steps := 0; !ps.Done(); steps++ {
		if steps > 4*n*n {
			t.Fatalf("n=%d: exchange did not converge after %d transfers", n, len(transfers))
		}
		for _, s := range ps.NextSessions() {
			if sending[s.Sender] || receiving[s.Receiver] {
				t.Fatalf("n=%d: session %d→%d double-books a port", n, s.Sender, s.Receiver)
			}
			sending[s.Sender], receiving[s.Receiver] = true, true
			inflight = append(inflight, s)
		}
		if len(inflight) == 0 {
			t.Fatalf("n=%d: deadlock after %d transfers", n, len(transfers))
		}
		s := inflight[0]
		inflight = inflight[1:]
		key := [2]int{s.Sender, s.Receiver}
		if transfers[key] {
			t.Fatalf("n=%d: duplicate transfer %v", n, key)
		}
		transfers[key] = true
		sending[s.Sender], receiving[s.Receiver] = false, false
		if err := ps.Complete(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(transfers) != n*(n-1) {
		t.Errorf("n=%d: transfers = %d, want %d", n, len(transfers), n*(n-1))
	}
	return ps, transfers
}

// checkEveryPair asserts that every GPU sent to and received from every
// other GPU: the final state of Table I's SentGPUs/ReceivedGPUs rows.
func checkEveryPair(t *testing.T, n int, transfers map[[2]int]bool) {
	t.Helper()
	for s := 0; s < n; s++ {
		for r := 0; r < n; r++ {
			if s != r && !transfers[[2]int{s, r}] {
				t.Errorf("n=%d: GPU %d never sent to GPU %d", n, s, r)
			}
		}
	}
}

// TestCompositionSchedulerFullExchange: the paper's composition scheduler
// (Table I, Figs. 11–12), a PlanScheduler over the direct-send plan, has
// every ordered pair transfer exactly once (n·(n−1) sessions) and never
// double-books a port.
func TestCompositionSchedulerFullExchange(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		_, transfers := driveFullExchange(t, n)
		checkEveryPair(t, n, transfers)
	}
}

// TestCompositionSchedulerPortExclusivity: with every GPU ready, the first
// batch the arbiter starts is non-empty and books each sender's egress and
// each receiver's ingress at most once.
func TestCompositionSchedulerPortExclusivity(t *testing.T) {
	for n := 2; n <= 8; n++ {
		ps := directSendScheduler(t, n)
		for g := 0; g < n; g++ {
			ps.SetReady(g)
		}
		sessions := ps.NextSessions()
		if len(sessions) == 0 {
			t.Fatalf("n=%d: no sessions scheduled among ready GPUs", n)
		}
		sendBusy := make([]bool, n)
		recvBusy := make([]bool, n)
		for _, s := range sessions {
			if sendBusy[s.Sender] {
				t.Errorf("n=%d: sender %d double-booked", n, s.Sender)
			}
			if recvBusy[s.Receiver] {
				t.Errorf("n=%d: receiver %d double-booked", n, s.Receiver)
			}
			sendBusy[s.Sender], recvBusy[s.Receiver] = true, true
		}
	}
}

// TestCompositionSchedulerExchange33 crosses the 32-bit boundary: with 33
// GPUs the ready bits need the high word, and the exchange must still
// complete with exactly n·(n−1) transfers, every pair covered.
func TestCompositionSchedulerExchange33(t *testing.T) {
	const n = 33
	ps, transfers := driveFullExchange(t, n)
	checkEveryPair(t, n, transfers)
	if got, want := ps.ReadyBits(), uint64(1)<<n-1; got != want {
		t.Errorf("ReadyBits = %#x, want %#x", got, want)
	}
}

// TestCompositionSchedulerExchange64 saturates the bit vectors: at the
// 64-GPU limit the ready mask is all ones (the 1<<64 wrap must not truncate
// it) and every pair transfers exactly once.
func TestCompositionSchedulerExchange64(t *testing.T) {
	const n = 64
	ps, transfers := driveFullExchange(t, n)
	checkEveryPair(t, n, transfers)
	if got := ps.ReadyBits(); got != ^uint64(0) {
		t.Errorf("ReadyBits = %#x, want all ones", got)
	}
}

// TestCompositionSchedulerCompleteUnscheduledErrors pins the arbiter's
// misuse contract: completing a session it never started is an error, and
// so is a group of zero GPUs.
func TestCompositionSchedulerCompleteUnscheduledErrors(t *testing.T) {
	ps := directSendScheduler(t, 2)
	if err := ps.Complete(plan.Session{Sender: 0, Receiver: 1}); err == nil {
		t.Error("expected error for unscheduled completion")
	}
	if _, err := plan.DirectSend(0, 8); err == nil {
		t.Error("expected error for zero GPUs")
	}
}

// TestDirectSendSchedulerFixedPriority pins Fig. 12's fixed-priority scan
// (ascending sender, then ascending receiver): with four GPUs ready, the
// first batch pairs 0↔1 and 2↔3 in both directions.
func TestDirectSendSchedulerFixedPriority(t *testing.T) {
	ps := directSendScheduler(t, 4)
	for g := 0; g < 4; g++ {
		ps.SetReady(g)
	}
	got := ps.NextSessions()
	want := [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}
	if len(got) != len(want) {
		t.Fatalf("first batch = %v, want %v", got, want)
	}
	for i, s := range got {
		if [2]int{s.Sender, s.Receiver} != want[i] {
			t.Fatalf("first batch = %v, want %v", got, want)
		}
	}
}

// TestDirectSendSchedulerRespectsReadiness pins the Ready gate: no session
// starts until both of its GPUs are ready.
func TestDirectSendSchedulerRespectsReadiness(t *testing.T) {
	ps := directSendScheduler(t, 3)
	ps.SetReady(0)
	// Only GPU0 ready: nothing can pair.
	if got := ps.NextSessions(); len(got) != 0 {
		t.Errorf("sessions with one ready GPU = %v", got)
	}
	ps.SetReady(1)
	// Links are full duplex: both directions of the pair start together.
	got := ps.NextSessions()
	if len(got) != 2 {
		t.Fatalf("sessions = %v, want both directions", got)
	}
	if got[0].Sender != 0 || got[0].Receiver != 1 || got[1].Sender != 1 || got[1].Receiver != 0 {
		t.Errorf("sessions = %v", got)
	}
	for _, s := range got {
		if err := ps.Complete(s); err != nil {
			t.Fatal(err)
		}
	}
	// GPU2 never became ready, so the exchange is not globally done.
	if ps.Done() {
		t.Error("scheduler done with GPU2 outstanding")
	}
}
