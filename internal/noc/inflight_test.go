package noc

import (
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/race"
	"denovosync/internal/sim"
)

// TestInFlightBetweenSendAndDispatch: on a serial machine (one engine
// shared by every node), a message counts as in flight from Send until
// its delivery event dispatches — once, not once per node — for both
// cross-router arrivals and same-router transfers.
func TestInFlightBetweenSendAndDispatch(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, mesh4x4(), 10, 3)
	var seen [proto.NumMsgClasses]int64
	n.Send(0, 15, proto.ClassSynch, proto.CtrlFlits, func() { seen = n.InFlight() })
	n.Send(5, 5, proto.ClassWB, proto.CtrlFlits, func() {})
	got := n.InFlight()
	if got[proto.ClassSynch] != 1 || got[proto.ClassWB] != 1 || n.InFlightTotal() != 2 {
		t.Fatalf("in flight after two sends = %v, want one Synch and one WB", got)
	}
	eng.Run(0)
	if n.InFlightTotal() != 0 {
		t.Fatalf("in flight after the drain = %v, want none", n.InFlight())
	}
	// The delivery event itself already counts as dispatched.
	if seen[proto.ClassSynch] != 0 {
		t.Fatalf("in flight seen by the delivery = %v, want the message delivered", seen)
	}
}

// swallow is an Exchange that never schedules a delivery.
type swallow struct{ dropped int }

func (s *swallow) Deliver(src, dst proto.NodeID, at, schedAt sim.Cycle, ctr uint64, tag sim.Tag, fn func()) {
	s.dropped++
}

// TestInFlightCountsSwallowedMessage: a message that is sent but never
// scheduled stays in flight forever — the accounting is sent minus
// dispatched, not a sweep of the pending queue.
func TestInFlightCountsSwallowedMessage(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, mesh4x4(), 10, 3)
	x := &swallow{}
	n.SetExchange(x)
	n.Send(0, 15, proto.ClassLD, proto.LineDataFlits, func() { t.Error("swallowed message delivered") })
	eng.Run(0)
	if x.dropped != 1 {
		t.Fatalf("exchange saw %d deliveries, want 1", x.dropped)
	}
	if got := n.InFlight(); got[proto.ClassLD] != 1 || n.InFlightTotal() != 1 {
		t.Fatalf("in flight = %v, want the swallowed LD message", got)
	}
}

// TestInFlightSumsDistinctEngines: with one engine per group of nodes,
// dispatches are summed over the distinct engines, each counted once.
func TestInFlightSumsDistinctEngines(t *testing.T) {
	mesh := mesh4x4()
	a, b := sim.NewEngine(), sim.NewEngine()
	n := New(a, mesh, 10, 3)
	engOf := make([]*sim.Engine, mesh.Tiles()+NumMemCtrl)
	for i := range engOf {
		engOf[i] = a
		if i >= 8 && i < mesh.Tiles() {
			engOf[i] = b
		}
	}
	n.SetEngines(engOf)
	n.Send(0, 12, proto.ClassST, proto.CtrlFlits, func() {}) // runs on b
	n.Send(0, 3, proto.ClassST, proto.CtrlFlits, func() {})  // runs on a
	if got := n.InFlight()[proto.ClassST]; got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	a.Run(0)
	if got := n.InFlight()[proto.ClassST]; got != 1 {
		t.Fatalf("in flight after engine a drained = %d, want 1", got)
	}
	b.Run(0)
	if got := n.InFlightTotal(); got != 0 {
		t.Fatalf("in flight after both drained = %d, want 0", got)
	}
}

// TestSendAllocatesNothing: sending a pre-bound delivery and dispatching
// it allocates nothing once the engine is warm, with the in-flight
// accounting the watchdog reads live throughout.
func TestSendAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng := sim.NewEngine()
	n := New(eng, mesh4x4(), 10, 3)
	delivered := 0
	deliver := func() { delivered++ }
	run := func() {
		n.Send(0, 15, proto.ClassSynch, proto.CtrlFlits, deliver)
		n.Send(5, 5, proto.ClassLD, proto.CtrlFlits, deliver)
		if n.InFlightTotal() != 2 {
			t.Fatal("sends not counted in flight")
		}
		eng.Run(0)
	}
	run() // warm the arena, ring and heap
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("Send + dispatch allocated %.1f times per run, want 0", a)
	}
	if n.InFlightTotal() != 0 || delivered == 0 {
		t.Fatalf("in flight %d after %d deliveries, want 0", n.InFlightTotal(), delivered)
	}
}
