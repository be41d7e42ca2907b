package noc

import (
	"testing"
	"testing/quick"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

func mesh4x4() Mesh { return Mesh{W: 4, H: 4} }
func mesh8x8() Mesh { return Mesh{W: 8, H: 8} }

func TestCoords(t *testing.T) {
	m := mesh4x4()
	if c := m.CoordOf(0); c != (Coord{0, 0}) {
		t.Fatalf("tile 0 at %v", c)
	}
	if c := m.CoordOf(5); c != (Coord{1, 1}) {
		t.Fatalf("tile 5 at %v", c)
	}
	if c := m.CoordOf(15); c != (Coord{3, 3}) {
		t.Fatalf("tile 15 at %v", c)
	}
	// Memory controllers at the four corners.
	corners := []Coord{{0, 0}, {3, 0}, {0, 3}, {3, 3}}
	for k, want := range corners {
		if c := m.CoordOf(m.MemNode(k)); c != want {
			t.Fatalf("mem %d at %v, want %v", k, c, want)
		}
		if !m.IsMemNode(m.MemNode(k)) {
			t.Fatalf("MemNode(%d) not recognized", k)
		}
	}
	if m.IsMemNode(proto.NodeID(15)) {
		t.Fatal("tile 15 misclassified as memory node")
	}
}

func TestHops(t *testing.T) {
	m := mesh4x4()
	cases := []struct {
		a, b proto.NodeID
		want int
	}{
		{0, 0, 0},
		{0, 15, 6}, // (0,0) -> (3,3)
		{0, 3, 3},  // along a row
		{3, 12, 6}, // (3,0) -> (0,3)
		{5, 10, 2}, // (1,1) -> (2,2)
		{0, m.MemNode(3), 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	m8 := mesh8x8()
	if got := m8.Hops(0, 63); got != 14 {
		t.Fatalf("8x8 max hops = %d, want 14", got)
	}
}

// Properties of Manhattan distance: symmetry, identity, triangle inequality.
func TestHopsMetricProperties(t *testing.T) {
	m := mesh8x8()
	n := proto.NodeID(m.Tiles() + NumMemCtrl)
	f := func(a, b, c uint8) bool {
		x := proto.NodeID(int(a) % int(n))
		y := proto.NodeID(int(b) % int(n))
		z := proto.NodeID(int(c) % int(n))
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		if m.Hops(x, x) != 0 {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyFitsTable1(t *testing.T) {
	e := sim.NewEngine()
	// 16-core fit: 10/3 cycles per hop.
	n16 := New(e, mesh4x4(), 10, 3)
	if lat := n16.Latency(12); lat != 40 {
		t.Fatalf("16c round-trip max = %d, want 40 (L2 28..68)", lat)
	}
	// 64-core fit: 4 cycles per hop.
	n64 := New(e, mesh8x8(), 4, 1)
	if lat := n64.Latency(28); lat != 112 {
		t.Fatalf("64c round-trip max = %d, want 112 (L2 28..140)", lat)
	}
	if lat := n64.Latency(0); lat != 0 {
		t.Fatalf("zero hops latency = %d", lat)
	}
}

// TestSendDeliversAfterLatency: a message arrives Latency(Hops) after it
// is sent and tallies flits × Hops flit-hops, for every (src, dst) pair
// of the 16- and 64-core meshes, the memory controllers included.
func TestSendDeliversAfterLatency(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, mesh4x4(), 10, 3)
	var at sim.Cycle
	lat := n.Send(0, 15, proto.ClassLD, proto.CtrlFlits, func(uint64) { at = e.Now() }, 0)
	if lat != 20 {
		t.Fatalf("latency = %d, want 20 (6 hops x 10/3)", lat)
	}
	e.Run(0)
	if at != 20 {
		t.Fatalf("delivered at %d, want 20", at)
	}

	for _, fit := range []struct {
		mesh     Mesh
		num, den sim.Cycle
	}{{mesh4x4(), 10, 3}, {mesh8x8(), 4, 1}} {
		e := sim.NewEngine()
		n := New(e, fit.mesh, fit.num, fit.den)
		nodes := fit.mesh.Tiles() + NumMemCtrl
		for src := proto.NodeID(0); int(src) < nodes; src++ {
			for dst := proto.NodeID(0); int(dst) < nodes; dst++ {
				hops := fit.mesh.Hops(src, dst)
				want := (sim.Cycle(hops)*fit.num + fit.den - 1) / fit.den
				if l := n.Latency(hops); l != want {
					t.Fatalf("%dx%d: Latency(%d) = %d, want %d", fit.mesh.W, fit.mesh.H, hops, l, want)
				}
				flits := 1 + int(src+dst)%proto.LineDataFlits
				before, sent := n.TotalTraffic(), e.Now()
				arrived := sim.Cycle(0)
				lat := n.Send(src, dst, proto.ClassST, flits, func(uint64) { arrived = e.Now() }, 0)
				e.Run(0)
				if lat != want || arrived != sent+want {
					t.Fatalf("%dx%d: %d -> %d (%d hops): latency %d, arrived after %d cycles, want %d",
						fit.mesh.W, fit.mesh.H, src, dst, hops, lat, arrived-sent, want)
				}
				if got := n.TotalTraffic() - before; got != uint64(flits*hops) {
					t.Fatalf("%dx%d: %d -> %d: %d flit-hops, want %d flits x %d hops", fit.mesh.W, fit.mesh.H, src, dst, got, flits, hops)
				}
			}
		}
		if got := n.Messages()[proto.ClassST]; got != uint64(nodes*nodes) {
			t.Fatalf("%dx%d: %d messages, want %d", fit.mesh.W, fit.mesh.H, got, nodes*nodes)
		}
	}
}

func TestTrafficAccounting(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, mesh4x4(), 10, 3)
	n.Send(0, 15, proto.ClassLD, 4, func(uint64) {}, 0)   // 4 flits x 6 hops = 24
	n.Send(0, 0, proto.ClassST, 100, func(uint64) {}, 0)  // same router: 0
	n.Send(1, 2, proto.ClassSynch, 6, func(uint64) {}, 0) // 6 flits x 1 hop = 6
	e.Run(0)
	tr := n.Traffic()
	if tr[proto.ClassLD] != 24 {
		t.Fatalf("LD traffic = %d, want 24", tr[proto.ClassLD])
	}
	if tr[proto.ClassST] != 0 {
		t.Fatalf("local transfer counted traffic: %d", tr[proto.ClassST])
	}
	if tr[proto.ClassSynch] != 6 {
		t.Fatalf("SYNCH traffic = %d, want 6", tr[proto.ClassSynch])
	}
	if n.TotalTraffic() != 30 {
		t.Fatalf("total = %d, want 30", n.TotalTraffic())
	}
	msgs := n.Messages()
	if msgs[proto.ClassLD] != 1 || msgs[proto.ClassST] != 1 {
		t.Fatalf("message counts wrong: %v", msgs)
	}
	n.ResetStats()
	if n.TotalTraffic() != 0 {
		t.Fatal("ResetStats did not clear traffic")
	}
}

func TestFlitSizes(t *testing.T) {
	if proto.CtrlFlits != 4 {
		t.Fatalf("CtrlFlits = %d, want 4 (8B header / 2B flits)", proto.CtrlFlits)
	}
	if proto.LineDataFlits != 36 {
		t.Fatalf("LineDataFlits = %d, want 36", proto.LineDataFlits)
	}
	if proto.WordDataFlits != 6 {
		t.Fatalf("WordDataFlits = %d, want 6", proto.WordDataFlits)
	}
	if proto.DataFlits(3) != 10 {
		t.Fatalf("DataFlits(3) = %d, want 10", proto.DataFlits(3))
	}
}
