// Package pdes runs a partitioned machine in parallel under a
// conservative time-window scheduler.
//
// The wired machine is split into logical processes (LPs): contiguous
// groups of tiles, each with its own sim.Engine cloned from the serial
// engine's arena/heap/ring design. The four memory controllers share a
// router with their corner tiles, so each is merged into its corner
// tile's LP — every zero-hop transfer is LP-local by construction, and
// every cross-LP message crosses at least one mesh link.
//
// That one-hop floor is the scheduler's lookahead L: during a window
// [tmin, tmin+L-1] no LP can make another LP dispatch an event at or
// before the horizon, because any message it sends arrives at least
// Latency(1 hop) = L cycles after its send cycle (jitter only adds).
// All LPs therefore run a window concurrently without coordination;
// cross-LP arrivals land in per-edge mailboxes that the coordinator
// drains at the barrier between windows.
//
// Determinism is not windowed — it is exact: every event carries the
// mode-invariant ordering key (at, schedAt, band|payload) described in
// package sim, so each LP's dispatch order is a subsequence of the
// serial order, and the differential battery in this package checks the
// resulting fingerprints and figure CSVs bit-for-bit against serial runs.
package pdes

import (
	"fmt"
	"sync"

	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// Partition maps every node of a mesh to a logical process: tiles in
// contiguous row-major groups of near-equal size, memory controllers
// merged with their corner tiles.
type Partition struct {
	LPs   int
	Tiles int
	lpOf  []int // node -> LP, tiles first then the NumMemCtrl controllers
}

// NewPartition splits mesh into lps logical processes.
func NewPartition(mesh noc.Mesh, lps int) (Partition, error) {
	tiles := mesh.Tiles()
	if lps < 1 || lps > tiles {
		return Partition{}, fmt.Errorf("pdes: LPs must be in [1, %d tiles], got %d", tiles, lps)
	}
	p := Partition{LPs: lps, Tiles: tiles, lpOf: make([]int, tiles+noc.NumMemCtrl)}
	for t := 0; t < tiles; t++ {
		p.lpOf[t] = t * lps / tiles
	}
	for k := 0; k < noc.NumMemCtrl; k++ {
		// A controller shares its router with the corner tile at the same
		// coordinate; zero-hop transfers between them must stay LP-local.
		c := mesh.CoordOf(mesh.MemNode(k))
		p.lpOf[tiles+k] = p.lpOf[c.Y*mesh.W+c.X]
	}
	return p, nil
}

// LPOf returns the logical process owning node.
func (p Partition) LPOf(node proto.NodeID) int { return p.lpOf[node] }

// arrival is one cross-LP message waiting in a mailbox.
type arrival struct {
	src         proto.NodeID
	at, schedAt sim.Cycle
	ctr         uint64
	tag         sim.Tag // the message class's tag: a parked message counts as in flight
	fn          func()
}

// mailbox is one directed LP edge's message buffer. Exactly one LP (the
// edge's source) appends, and the coordinator drains between windows when
// no LP is running; the mutex provides the memory-visibility handoff.
type mailbox struct {
	mu   sync.Mutex
	msgs []arrival
}

// Exchange routes cross-router deliveries for a partitioned machine: it
// implements noc.Exchange, pushing same-LP arrivals straight onto the
// destination engine (the caller is executing on it) and parking cross-LP
// arrivals in the (srcLP, dstLP) mailbox until the next window barrier.
type Exchange struct {
	part    Partition
	engines []*sim.Engine
	boxes   [][]mailbox // [srcLP][dstLP]
}

// NewExchange builds the message router for part over one engine per LP.
func NewExchange(part Partition, engines []*sim.Engine) *Exchange {
	if len(engines) != part.LPs {
		panic("pdes: engine count does not match partition")
	}
	x := &Exchange{part: part, engines: engines, boxes: make([][]mailbox, part.LPs)}
	for i := range x.boxes {
		x.boxes[i] = make([]mailbox, part.LPs)
	}
	return x
}

// Deliver implements noc.Exchange. It runs on the sending LP's goroutine.
func (x *Exchange) Deliver(src, dst proto.NodeID, at, schedAt sim.Cycle, ctr uint64, tag sim.Tag, fn func()) {
	srcLP, dstLP := x.part.LPOf(src), x.part.LPOf(dst)
	if srcLP == dstLP {
		x.engines[dstLP].ScheduleArrivalAt(at, schedAt, uint32(src), ctr, tag, fn)
		return
	}
	mb := &x.boxes[srcLP][dstLP]
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, arrival{src: src, at: at, schedAt: schedAt, ctr: ctr, tag: tag, fn: fn})
	mb.mu.Unlock()
}

// drainInto empties every mailbox aimed at dstLP into its engine. Only
// the coordinator calls it, between windows. Mailbox order across sources
// is irrelevant: the engine heap re-establishes the unique key order.
func (x *Exchange) drainInto(dstLP int) {
	eng := x.engines[dstLP]
	for s := 0; s < x.part.LPs; s++ {
		mb := &x.boxes[s][dstLP]
		mb.mu.Lock()
		msgs := mb.msgs
		mb.msgs = nil
		mb.mu.Unlock()
		for _, m := range msgs {
			eng.ScheduleArrivalAt(m.at, m.schedAt, uint32(m.src), m.ctr, m.tag, m.fn)
		}
	}
}
