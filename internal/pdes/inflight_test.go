package pdes

import (
	"testing"

	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// TestInFlightWhileParkedInMailbox: a cross-LP message waiting in a
// mailbox for the next barrier is sent and not yet dispatched, so the
// network counts it in flight until the destination LP runs it.
func TestInFlightWhileParkedInMailbox(t *testing.T) {
	mesh := noc.Mesh{W: 4, H: 4}
	part, err := NewPartition(mesh, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	net := noc.New(engines[0], mesh, 10, 3)
	engOf := make([]*sim.Engine, mesh.Tiles()+noc.NumMemCtrl)
	for i := range engOf {
		engOf[i] = engines[part.LPOf(proto.NodeID(i))]
	}
	net.SetEngines(engOf)
	x := NewExchange(part, engines)
	net.SetExchange(x)

	dst := proto.NodeID(15)
	if part.LPOf(0) == part.LPOf(dst) {
		t.Fatal("fixture needs a cross-LP pair")
	}
	delivered := false
	net.Send(0, dst, proto.ClassSynch, proto.CtrlFlits, func() { delivered = true })
	if n := engines[part.LPOf(dst)].Pending(); n != 0 {
		t.Fatalf("destination engine holds %d events before the barrier, want the message parked", n)
	}
	if got := net.InFlight()[proto.ClassSynch]; got != 1 {
		t.Fatalf("in flight while parked = %d, want 1", got)
	}
	x.drainInto(part.LPOf(dst))
	if got := net.InFlight()[proto.ClassSynch]; got != 1 {
		t.Fatalf("in flight once drained into the engine = %d, want 1", got)
	}
	engines[part.LPOf(dst)].Run(0)
	if !delivered || net.InFlightTotal() != 0 {
		t.Fatalf("delivered=%t in flight=%d after the run, want delivered and 0", delivered, net.InFlightTotal())
	}
}
