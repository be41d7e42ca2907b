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

// endpoint is one node's tile-local slice of the traffic accounting.
// Only Send writes it, and only the source node's endpoint. Keeping every
// mutable counter sliced per node is what lets the isolation prover
// (internal/lint/lpisolate) certify the network as PDES-partitionable: a
// logical process only ever touches its own endpoint, and totals are
// aggregated by read-only sweeps.
type endpoint struct {
	flitCrossings [proto.NumMsgClasses]uint64
	messages      [proto.NumMsgClasses]uint64

	// sent counts messages per class that entered the mesh here. The
	// delivery side needs no counter of its own: each delivery event is
	// tagged with its class, and the engine that dispatches it counts it
	// (see InFlight).
	sent [proto.NumMsgClasses]uint64

	// arrivalSeq is this node's running cross-router message counter: the
	// per-source half of the (src, ctr) arrival tie-break key (see
	// sim.Engine.ScheduleArrivalAt). Source-owned, so every partition of
	// the machine assigns identical keys without coordination.
	arrivalSeq uint64
}

// Exchange routes a cross-router delivery to the destination node's event
// queue. The serial machine needs none (every node shares one engine); the
// conservative window scheduler (internal/pdes) installs one that enqueues
// same-LP arrivals directly and exports cross-LP arrivals as timestamped
// messages into per-edge mailboxes drained at window barriers.
type Exchange interface {
	// Deliver schedules fn at absolute cycle at on dst's queue. schedAt is
	// the send cycle, (src, ctr) the sender-assigned arrival key, and tag
	// the message class's event tag, which the event must carry so its
	// dispatch is counted (see InFlight).
	Deliver(src, dst proto.NodeID, at, schedAt sim.Cycle, ctr uint64, tag sim.Tag, fn func())
}

// Network delivers messages across a Mesh and tallies traffic.
type Network struct {
	Mesh
	eng *sim.Engine

	// engOf maps a node to the engine that executes its events — all the
	// same engine in serial mode, one per logical process under PDES —
	// and engines lists the distinct ones, in node order, for the
	// in-flight sweep. Wiring-time state, frozen before the first send.
	engOf   []*sim.Engine
	engines []*sim.Engine

	// exchange, when non-nil, routes cross-router deliveries (see Exchange).
	//lpisolate:boundary(wiring-injected cross-LP event exchange: per-edge mailboxes owned by the window scheduler, drained at barriers)
	exchange Exchange

	// perHopNum/perHopDen is the per-hop latency in cycles, as a rational
	// so the 16-core fit of 10/3 cycles per hop is exact.
	perHopNum, perHopDen sim.Cycle

	// eps holds the per-node traffic endpoints, indexed by NodeID
	// (tiles first, then the memory-controller nodes).
	eps []endpoint

	// trace, when non-nil, observes every message at send time.
	//lpisolate:boundary(wiring-injected observer: read-only by contract, runs synchronously at the sender)
	trace func(at sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int)

	// perturb, when non-nil, replaces a message's modeled delivery latency
	// with a (possibly jittered) one — the chaos engine's injection point.
	// now is the send cycle (passed in so the policy needs no engine handle
	// of its own — under PDES each sender has a different clock). The
	// callback must return a latency >= 0; it may reorder deliveries
	// across source/destination pairs but is responsible for whatever
	// ordering discipline the attached policy promises.
	//lpisolate:boundary(wiring-injected latency policy: owns only its own jitter state, audited in internal/chaos)
	perturb func(now sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int, lat sim.Cycle) sim.Cycle

	// cont, when non-nil, switches latency to the link-contention model.
	// Its per-link busy horizons are fabric state mutated on every send:
	// under a PDES partition the contended mesh is its own logical
	// process (or sharded per link), not tile state.
	//lpisolate:boundary(link-contention busy horizons are fabric-owned; a PDES port makes the contended NoC its own LP)
	cont *contention
}

// New creates a network on eng. perHopNum/perHopDen is the per-hop latency.
func New(eng *sim.Engine, mesh Mesh, perHopNum, perHopDen sim.Cycle) *Network {
	if perHopDen == 0 {
		panic("noc: zero per-hop denominator")
	}
	n := &Network{
		Mesh: mesh, eng: eng, perHopNum: perHopNum, perHopDen: perHopDen,
		eps:   make([]endpoint, mesh.Tiles()+NumMemCtrl),
		engOf: make([]*sim.Engine, mesh.Tiles()+NumMemCtrl),
	}
	for i := range n.engOf {
		n.engOf[i] = eng
	}
	n.engines = []*sim.Engine{eng}
	return n
}

// SetEngines installs the per-node engine map for a partitioned machine:
// engOf[node] is the engine that executes node's events. Wiring-time only.
func (n *Network) SetEngines(engOf []*sim.Engine) {
	if len(engOf) != len(n.engOf) {
		panic("noc: SetEngines length mismatch")
	}
	copy(n.engOf, engOf)
	n.engines = n.engines[:0]
	for _, e := range engOf {
		if !containsEngine(n.engines, e) {
			n.engines = append(n.engines, e)
		}
	}
}

func containsEngine(es []*sim.Engine, e *sim.Engine) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// classTag is the event tag a message class's deliveries carry; tag 0
// stays with untagged events.
func classTag(class proto.MsgClass) sim.Tag { return sim.Tag(class) + 1 }

// Every class needs its own tag: this fails to compile if they run out.
const _ = uint(sim.NumTags - 1 - proto.NumMsgClasses)

// SetExchange installs the cross-router delivery router (nil restores
// direct scheduling on the destination node's engine). Wiring-time only.
func (n *Network) SetExchange(x Exchange) { n.exchange = x }

// EngineFor returns the engine executing node's events.
func (n *Network) EngineFor(node proto.NodeID) *sim.Engine { return n.engOf[node] }

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
// Send must be called while executing on src's engine (every caller is a
// tile-local controller or a delivery event already running at src).
// Cross-router deliveries are keyed arrivals — ordered at the destination
// by (arrival cycle, send cycle, src, per-src counter), a key computed
// from sender-owned state alone — so the dispatch order is identical
// whether all nodes share one engine or the machine is partitioned into
// logical processes. Same-router transfers stay band-0 local events: the
// two nodes sharing a router (a tile and its co-located L2 bank, a corner
// tile and its memory controller) are always in the same partition.
func (n *Network) Send(src, dst proto.NodeID, class proto.MsgClass, flits int, deliver func()) sim.Cycle {
	eng := n.engOf[src]
	now := eng.Now()
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
		// Same router ⇒ same logical process under any partition: keep
		// the local FIFO-ring fast path (and with it, the exact serial
		// ordering of co-located transfers).
		eng.ScheduleTagged(lat, tag, deliver)
		return lat
	}
	ctr := n.eps[src].arrivalSeq
	n.eps[src].arrivalSeq++
	at := now + lat
	if x := n.exchange; x != nil {
		x.Deliver(src, dst, at, now, ctr, tag, deliver)
	} else {
		n.engOf[dst].ScheduleArrivalAt(at, now, uint32(src), ctr, tag, deliver)
	}
	return lat
}

// SetPerturb installs a delivery-latency perturbation (nil disables).
func (n *Network) SetPerturb(fn func(now sim.Cycle, src, dst proto.NodeID, class proto.MsgClass, flits int, lat sim.Cycle) sim.Cycle) {
	n.perturb = fn
}

// InFlight returns the sent-but-undelivered message count per class: the
// per-endpoint sent counters, swept in node order, minus the class-tagged
// deliveries each distinct engine has dispatched. A message waiting in a
// PDES mailbox, or one an Exchange never scheduled, is sent and not
// dispatched, so it counts as in flight. The accounting is always on and
// costs Send one counter increment.
func (n *Network) InFlight() [proto.NumMsgClasses]int64 {
	var out [proto.NumMsgClasses]int64
	for c := range out {
		var sent, delivered uint64
		for i := range n.eps {
			sent += n.eps[i].sent[c]
		}
		for _, e := range n.engines {
			delivered += e.Dispatched(classTag(proto.MsgClass(c)))
		}
		out[c] = int64(sent - delivered)
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
