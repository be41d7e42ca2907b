package noc

import (
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

func TestRouteXY(t *testing.T) {
	m := mesh4x4()
	links := m.route(Coord{0, 0}, Coord{2, 1})
	if len(links) != 3 {
		t.Fatalf("route length = %d, want 3", len(links))
	}
	// X first, then Y.
	if links[0] != (linkID{Coord{0, 0}, Coord{1, 0}}) ||
		links[1] != (linkID{Coord{1, 0}, Coord{2, 0}}) ||
		links[2] != (linkID{Coord{2, 0}, Coord{2, 1}}) {
		t.Fatalf("route = %v", links)
	}
	if len(m.route(Coord{1, 1}, Coord{1, 1})) != 0 {
		t.Fatal("self route not empty")
	}
}

func TestContentionUncontendedMatchesAnalytic(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, mesh4x4(), 10, 3)
	n.EnableContention(1)
	// A lone control message pays the analytic latency plus its own tail
	// serialization.
	lat := n.Send(0, 3, proto.ClassLD, proto.CtrlFlits, func(uint64) {}, 0)
	// Per-link pipeline (3 x per-hop) plus the tail's serialization.
	want := 3*n.Latency(1) + sim.Cycle(proto.CtrlFlits-1)
	if lat != want {
		t.Fatalf("uncontended latency = %d, want %d", lat, want)
	}
}

func TestContentionSerializesHotLink(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, mesh4x4(), 10, 3)
	n.EnableContention(1)
	// Two large messages down the same link: the second waits for the
	// first's occupancy.
	l1 := n.Send(0, 1, proto.ClassLD, proto.LineDataFlits, func(uint64) {}, 0)
	l2 := n.Send(0, 1, proto.ClassLD, proto.LineDataFlits, func(uint64) {}, 0)
	if l2 <= l1 {
		t.Fatalf("second message not delayed: %d then %d", l1, l2)
	}
	if l2 < l1+sim.Cycle(proto.LineDataFlits)-5 {
		t.Fatalf("second message delay too small: %d vs %d", l2, l1)
	}
	// A message on a disjoint route is unaffected.
	l3 := n.Send(5, 6, proto.ClassLD, proto.CtrlFlits, func(uint64) {}, 0)
	if l3 != n.Latency(1)+sim.Cycle(proto.CtrlFlits-1) {
		t.Fatalf("disjoint route delayed: %d", l3)
	}
	e.Run(0)
}

func TestContentionZeroHopFree(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, mesh4x4(), 10, 3)
	n.EnableContention(1)
	if lat := n.Send(0, 0, proto.ClassLD, 100, func(uint64) {}, 0); lat != 0 {
		t.Fatalf("local transfer cost %d", lat)
	}
}

func TestContentionDisabledByDefault(t *testing.T) {
	e := sim.NewEngine()
	n := New(e, mesh4x4(), 10, 3)
	if n.ContentionEnabled() {
		t.Fatal("contention on by default")
	}
}
