// Package noc models the on-chip interconnection network: a 2D mesh with
// XY routing, 16-bit flits, and per-message-class traffic accounting.
//
// Message latency is modeled analytically (per-hop router+link delay fitted
// to the latency ranges in Table 1 of the paper) rather than flit-by-flit,
// which keeps the simulator fast while preserving the distance sensitivity
// and the traffic metric the paper reports: network traffic is counted as
// flit link-crossings, i.e. flits × hops.
package noc

import (
	"fmt"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// Coord is a router position on the mesh.
type Coord struct{ X, Y int }

// Mesh describes a W×H tiled mesh. Tiles are numbered row-major; memory
// controllers occupy the four corner routers (sharing them with the corner
// tiles, as is common for on-chip memory controller placement).
type Mesh struct {
	W, H int
}

// Tiles returns the number of tiles (cores / L2 banks).
func (m Mesh) Tiles() int { return m.W * m.H }

// NumMemCtrl is the number of on-chip memory controllers (Table 1).
const NumMemCtrl = 4

// TileNode returns the NodeID of tile t.
func (m Mesh) TileNode(t int) proto.NodeID { return proto.NodeID(t) }

// MemNode returns the NodeID of memory controller k (0..3).
func (m Mesh) MemNode(k int) proto.NodeID { return proto.NodeID(m.Tiles() + k) }

// IsMemNode reports whether n is a memory-controller node.
func (m Mesh) IsMemNode(n proto.NodeID) bool { return int(n) >= m.Tiles() }

// CoordOf returns the router coordinate of node n.
func (m Mesh) CoordOf(n proto.NodeID) Coord {
	t := int(n)
	if t < m.Tiles() {
		return Coord{X: t % m.W, Y: t / m.W}
	}
	switch t - m.Tiles() {
	case 0:
		return Coord{0, 0}
	case 1:
		return Coord{m.W - 1, 0}
	case 2:
		return Coord{0, m.H - 1}
	case 3:
		return Coord{m.W - 1, m.H - 1}
	}
	panic(fmt.Sprintf("noc: invalid node %d", n))
}

// Hops returns the Manhattan distance between two nodes' routers.
func (m Mesh) Hops(a, b proto.NodeID) int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// endpoint is one node's slice of the traffic accounting. Only Send
// writes it, and only the source node's endpoint; totals are aggregated
// by read-only sweeps in node order.
type endpoint struct {
	flitCrossings [proto.NumMsgClasses]uint64
	messages      [proto.NumMsgClasses]uint64

	// sent counts messages per class that entered the mesh here. The
	// delivery side needs no counter of its own: each delivery event is
	// tagged with its class, and the engine counts it when it dispatches
	// (see InFlight).
	sent [proto.NumMsgClasses]uint64

	// arrivalSeq is this node's running cross-router message counter: the
	// per-source half of the (src, ctr) arrival tie-break key (see
	// sim.Engine.ScheduleArrivalAt).
	arrivalSeq uint64
}

// Network delivers messages across a Mesh and tallies traffic.
type Network struct {
	Mesh
	eng *sim.Engine

	// perHopNum/perHopDen is the per-hop latency in cycles, as a rational
	// so the 16-core fit of 10/3 cycles per hop is exact.
	perHopNum, perHopDen sim.Cycle

	// eps holds the per-node traffic endpoints, indexed by NodeID
	// (tiles first, then the memory-controller nodes).
	eps []endpoint

	// trace, when non-nil, observes every message at send time.
	trace func(at sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int)

	// perturb, when non-nil, replaces a message's modeled delivery latency
	// with a (possibly jittered) one — the chaos engine's injection point.
	// now is the send cycle. The callback must return a latency >= 0; it
	// may reorder deliveries across source/destination pairs but is
	// responsible for whatever ordering discipline the attached policy
	// promises.
	perturb func(now sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int, lat sim.Cycle) sim.Cycle

	// cont, when non-nil, switches latency to the link-contention model.
	cont *contention
}

// New creates a network on eng. perHopNum/perHopDen is the per-hop latency.
func New(eng *sim.Engine, mesh Mesh, perHopNum, perHopDen sim.Cycle) *Network {
	if perHopDen == 0 {
		panic("noc: zero per-hop denominator")
	}
	return &Network{
		Mesh: mesh, eng: eng, perHopNum: perHopNum, perHopDen: perHopDen,
		eps: make([]endpoint, mesh.Tiles()+NumMemCtrl),
	}
}

// classTag is the event tag a message class's deliveries carry; tag 0
// stays with untagged events.
func classTag(class proto.MsgClass) sim.Tag { return sim.Tag(class) + 1 }

// Every class needs its own tag: this fails to compile if they run out.
const _ = uint(sim.NumTags - 1 - proto.NumMsgClasses)

// Latency returns the modeled network traversal time for hops hops.
func (n *Network) Latency(hops int) sim.Cycle {
	return (sim.Cycle(hops)*n.perHopNum + n.perHopDen - 1) / n.perHopDen
}

// Send transmits a message of flits flits from src to dst and schedules
// deliver at arrival. Same-router transfers (hops = 0) are free and
// instantaneous: they never touch a mesh link, matching the paper's traffic
// metric. Send returns the modeled latency. The delivery event is deliver
// itself, tagged with the message class, so Send allocates nothing of its
// own.
//
// Cross-router deliveries are keyed arrivals, ordered by (arrival cycle,
// send cycle, src, per-src counter); same-router transfers are ordinary
// sequence-numbered events. The recorded results depend on both orders
// (see sim.Engine.ScheduleArrivalAt).
func (n *Network) Send(src, dst proto.NodeID, class proto.MsgClass, flits int, deliver func()) sim.Cycle {
	now := n.eng.Now()
	if n.trace != nil {
		n.trace(now, src, dst, class, flits)
	}
	hops := n.Hops(src, dst)
	n.eps[src].flitCrossings[class] += uint64(flits * hops)
	n.eps[src].messages[class]++
	var lat sim.Cycle
	if n.cont != nil {
		lat = n.contendedLatency(src, dst, flits)
	} else {
		lat = n.Latency(hops)
	}
	if n.perturb != nil {
		lat = n.perturb(now, src, dst, class, flits, lat)
	}
	n.eps[src].sent[class]++
	tag := classTag(class)
	if hops == 0 {
		n.eng.ScheduleTagged(lat, tag, deliver)
		return lat
	}
	ctr := n.eps[src].arrivalSeq
	n.eps[src].arrivalSeq++
	n.eng.ScheduleArrivalAt(now+lat, now, uint32(src), ctr, tag, deliver)
	return lat
}

// SetPerturb installs a delivery-latency perturbation (nil disables).
func (n *Network) SetPerturb(fn func(now sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int, lat sim.Cycle) sim.Cycle) {
	n.perturb = fn
}

// InFlight returns the sent-but-undelivered message count per class: the
// per-endpoint sent counters, swept in node order, minus the class-tagged
// deliveries the engine has dispatched. The accounting is always on and
// costs Send one counter increment.
func (n *Network) InFlight() [proto.NumMsgClasses]int64 {
	var out [proto.NumMsgClasses]int64
	for c := range out {
		var sent uint64
		for i := range n.eps {
			sent += n.eps[i].sent[c]
		}
		out[c] = int64(sent - n.eng.Dispatched(classTag(proto.MsgClass(c))))
	}
	return out
}

// InFlightTotal returns the total sent-but-undelivered message count.
func (n *Network) InFlightTotal() int64 {
	var t int64
	for _, v := range n.InFlight() {
		t += v
	}
	return t
}

// SetTrace installs a message observer (nil disables tracing).
func (n *Network) SetTrace(fn func(at sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int)) {
	n.trace = fn
}

// Traffic returns flit link-crossings accumulated per message class,
// summed over the per-node endpoints in node order.
func (n *Network) Traffic() [proto.NumMsgClasses]uint64 {
	var out [proto.NumMsgClasses]uint64
	for i := range n.eps {
		for c := range out {
			out[c] += n.eps[i].flitCrossings[c]
		}
	}
	return out
}

// Messages returns message counts per class, summed over the per-node
// endpoints in node order.
func (n *Network) Messages() [proto.NumMsgClasses]uint64 {
	var out [proto.NumMsgClasses]uint64
	for i := range n.eps {
		for c := range out {
			out[c] += n.eps[i].messages[c]
		}
	}
	return out
}

// TotalTraffic returns total flit link-crossings across all classes.
func (n *Network) TotalTraffic() uint64 {
	var t uint64
	for _, v := range n.Traffic() {
		t += v
	}
	return t
}

// ResetStats clears the traffic counters (e.g. after warmup). In-flight
// accounting deliberately survives a reset: a message sent before the
// reset must still balance its sent counter when it is dispatched.
func (n *Network) ResetStats() {
	for i := range n.eps {
		n.eps[i].flitCrossings = [proto.NumMsgClasses]uint64{}
		n.eps[i].messages = [proto.NumMsgClasses]uint64{}
	}
}
