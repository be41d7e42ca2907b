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
