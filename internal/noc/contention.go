package noc

import (
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// Optional link-contention modeling. The default network model is
// analytic (pure distance-based latency); enabling contention switches to
// a wormhole approximation: every message occupies each link of its XY
// route for flits × (cycles per flit), and a message arriving at a busy
// link waits for the link to drain. This is deterministic, costs O(hops)
// per message, and captures the first-order queueing effect the paper's
// Garnet network would show on hot-spot traffic (e.g. all cores hammering
// one L2 bank), while remaining far cheaper than flit-level simulation.

// linkID identifies a directed mesh link (from router a toward router b,
// one hop apart) or a router-local ejection port.
type linkID struct {
	from, to Coord
}

// route returns the XY route's directed links between two routers.
func (m Mesh) route(a, b Coord) []linkID {
	var links []linkID
	cur := a
	for cur.X != b.X {
		next := cur
		if b.X > cur.X {
			next.X++
		} else {
			next.X--
		}
		links = append(links, linkID{cur, next})
		cur = next
	}
	for cur.Y != b.Y {
		next := cur
		if b.Y > cur.Y {
			next.Y++
		} else {
			next.Y--
		}
		links = append(links, linkID{cur, next})
		cur = next
	}
	return links
}

// contention tracks per-link busy horizons.
type contention struct {
	// flitCycles is the serialization time per flit on a link.
	flitCycles sim.Cycle
	freeAt     map[linkID]sim.Cycle
}

// EnableContention switches the network to the wormhole-approximation
// latency model: per-link serialization of flitCycles cycles per flit on
// top of the per-hop pipeline latency. flitCycles = 1 models a link as
// wide as one flit per cycle.
func (n *Network) EnableContention(flitCycles sim.Cycle) {
	if flitCycles == 0 {
		flitCycles = 1
	}
	n.cont = &contention{flitCycles: flitCycles, freeAt: make(map[linkID]sim.Cycle)}
}

// ContentionEnabled reports whether link contention is being modeled.
func (n *Network) ContentionEnabled() bool { return n.cont != nil }

// contendedLatency walks the message's route, reserving each link in
// turn: the head flit waits for a busy link to drain, each link is then
// occupied for flits × flitCycles, and the head moves on after the
// per-hop pipeline latency. Delivery adds the tail's serialization once
// (flits pipeline across links). Returns the delivery delay from now.
func (n *Network) contendedLatency(src, dst proto.NodeID, flits int) sim.Cycle {
	now := n.eng.Now()
	t := now
	perHop := n.Latency(1)
	occupancy := sim.Cycle(flits) * n.cont.flitCycles
	links := n.Mesh.route(n.coords[src], n.coords[dst])
	for _, l := range links {
		if free := n.cont.freeAt[l]; free > t {
			t = free
		}
		n.cont.freeAt[l] = t + occupancy
		t += perHop
	}
	if len(links) > 0 && flits > 1 {
		t += sim.Cycle(flits-1) * n.cont.flitCycles
	}
	return t - now
}
