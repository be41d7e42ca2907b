package mesi

import (
	"sort"

	"denovosync/internal/proto"
)

// dirState is the directory's per-line stable state. Typed so that
// simlint's exhauststate analyzer verifies transition switches cover every
// declared state.
type dirState byte

// Directory state per line.
const (
	di dirState = iota // no cached copies
	ds                 // shared, sharer list valid
	dm                 // owned (E or M at the owner)
)

type dirPending struct {
	req   *L1
	wantM bool
}

type dirEntry struct {
	resident bool // line present in the L2 (cold misses fetch from DRAM)
	state    dirState
	owner    *L1
	epoch    uint64 // bumped per exclusive grant; Puts return it (see recvPut)
	sharers  map[*L1]bool
	busy     bool
	needAcks int // completion messages outstanding for the current txn
	queue    []dirPending
}

// Directory is the shared L2: home for every line, full-map sharer
// tracking, blocking per-line transactions. Banks are line-interleaved
// across tiles; bank placement only affects message distances.
type Directory struct {
	cfg   *Config
	tiles int
	// entries is sharded per home bank: entries[b] holds the lines whose
	// L2 bank is tile b, and is touched only by events running at that
	// tile.
	entries []map[proto.Addr]*dirEntry

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver
}

// NewDirectory creates the directory for a tiles-tile system.
func NewDirectory(cfg *Config, tiles int) *Directory {
	d := &Directory{cfg: cfg, tiles: tiles, entries: make([]map[proto.Addr]*dirEntry, tiles)}
	for i := range d.entries {
		d.entries[i] = make(map[proto.Addr]*dirEntry)
	}
	return d
}

// NodeFor returns the tile node hosting line's L2 bank.
func (d *Directory) NodeFor(line proto.Addr) proto.NodeID {
	return proto.NodeID(int(line/proto.LineBytes) % d.tiles)
}

// lookup returns line's entry without creating it (nil if unknown).
func (d *Directory) lookup(line proto.Addr) *dirEntry {
	return d.entries[int(line/proto.LineBytes)%d.tiles][line]
}

// forEachEntry visits every entry across all banks (diagnostics and
// validation only; callers sort whatever they collect).
func (d *Directory) forEachEntry(fn func(proto.Addr, *dirEntry)) {
	for _, bank := range d.entries {
		for line, e := range bank { //simlint:allow determinism: callers sort collected keys
			fn(line, e)
		}
	}
}

func (d *Directory) entry(line proto.Addr) *dirEntry {
	bank := d.entries[int(line/proto.LineBytes)%d.tiles]
	e := bank[line]
	if e == nil {
		e = &dirEntry{sharers: make(map[*L1]bool)}
		bank[line] = e
	}
	return e
}

func (d *Directory) recvGetS(line proto.Addr, req *L1) { d.enqueue(line, dirPending{req, false}) }
func (d *Directory) recvGetM(line proto.Addr, req *L1) { d.enqueue(line, dirPending{req, true}) }

func (d *Directory) enqueue(line proto.Addr, p dirPending) {
	e := d.entry(line)
	e.queue = append(e.queue, p)
	d.maybeStart(line, e)
}

func (d *Directory) maybeStart(line proto.Addr, e *dirEntry) {
	if e.busy || len(e.queue) == 0 {
		return
	}
	p := e.queue[0]
	e.queue = e.queue[1:]
	e.busy = true
	class := proto.ClassLD
	if p.wantM {
		class = proto.ClassST
	}
	// Directory/L2 access latency, then a cold fetch if needed.
	d.cfg.Eng.Schedule(d.cfg.L2AccessLat, func() {
		if !e.resident {
			d.cfg.DRAM.Fetch(d.NodeFor(line), line, class, func() {
				e.resident = true
				d.service(line, e, p)
			})
			return
		}
		d.service(line, e, p)
	})
}

// service dispatches the transaction at the head of the line's queue to
// the per-event handler (the state/event transition nests the atlas
// extractor walks; see internal/lint/atlas).
func (d *Directory) service(line proto.Addr, e *dirEntry, p dirPending) {
	if p.wantM {
		d.serviceGetM(line, e, p.req)
	} else {
		d.serviceGetS(line, e, p.req)
	}
}

// serviceGetS handles a read request at the directory.
func (d *Directory) serviceGetS(line proto.Addr, e *dirEntry, req *L1) {
	node := d.NodeFor(line)
	d.observe(e.state, "serviceGetS")
	switch e.state {
	case di:
		// Exclusive grant (the E state of MESI). Reads serviced from
		// the directory involve no ownership transfer and no pending
		// invalidations, so they complete without blocking the line.
		e.state = dm
		e.owner = req
		e.epoch++
		e.busy = false
		ep := e.epoch
		d.cfg.Net.Send(node, req.node, proto.ClassLD, proto.LineDataFlits, func() {
			req.recvData(line, 0, true, false, ep)
		})
		d.maybeStart(line, e)
	case ds:
		e.sharers[req] = true
		e.busy = false
		d.cfg.Net.Send(node, req.node, proto.ClassLD, proto.LineDataFlits, func() {
			req.recvData(line, 0, false, false, 0)
		})
		d.maybeStart(line, e)
	case dm:
		owner := e.owner
		e.state = ds
		e.sharers = map[*L1]bool{owner: true, req: true}
		e.owner = nil
		e.needAcks = 2 // owner's writeback/ack + requestor's Unblock
		d.cfg.Net.Send(node, owner.node, proto.ClassLD, proto.CtrlFlits, func() {
			owner.recvFwdGetS(line, req)
		})
	}
}

// serviceGetM handles a write/upgrade request at the directory.
func (d *Directory) serviceGetM(line proto.Addr, e *dirEntry, req *L1) {
	node := d.NodeFor(line)
	d.observe(e.state, "serviceGetM")
	switch e.state {
	case di:
		e.state = dm
		e.owner = req
		e.epoch++
		e.needAcks = 1
		ep := e.epoch
		d.cfg.Net.Send(node, req.node, proto.ClassST, proto.LineDataFlits, func() {
			req.recvData(line, 0, false, true, ep)
		})
	case ds:
		invs := 0
		wasSharer := e.sharers[req]
		// Deterministic invalidation order (sorted by core ID): map
		// iteration order must never leak into simulated timing.
		var ss []*L1
		for s := range e.sharers { //simlint:allow determinism: sharers are sorted by core ID below
			if s != req {
				ss = append(ss, s)
			}
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
		for _, s := range ss {
			invs++
			s := s
			d.cfg.Net.Send(node, s.node, proto.ClassInv, proto.CtrlFlits, func() {
				s.recvInv(line, req)
			})
		}
		e.state = dm
		e.owner = req
		e.epoch++
		e.sharers = make(map[*L1]bool)
		e.needAcks = 1
		// If the requestor already holds the line in S, only the ack count
		// travels (no data); otherwise a full data response.
		flits := proto.LineDataFlits
		if wasSharer {
			flits = proto.CtrlFlits
		}
		n := invs
		ep := e.epoch
		d.cfg.Net.Send(node, req.node, proto.ClassST, flits, func() {
			req.recvData(line, n, false, true, ep)
		})
	case dm:
		owner := e.owner
		e.owner = req
		e.epoch++
		e.needAcks = 1
		ep := e.epoch
		d.cfg.Net.Send(node, owner.node, proto.ClassST, proto.CtrlFlits, func() {
			owner.recvFwdGetM(line, req, ep)
		})
	}
}

// recvUnblock ends the requestor's part of the current transaction.
func (d *Directory) recvUnblock(line proto.Addr) { d.complete(line) }

// recvOwnerAck ends the previous owner's part of a forwarded GetS.
func (d *Directory) recvOwnerAck(line proto.Addr) { d.complete(line) }

func (d *Directory) complete(line proto.Addr) {
	e := d.entry(line)
	if !e.busy {
		panic("mesi: completion for idle directory entry")
	}
	d.observe(e.state, "complete")
	e.needAcks--
	if e.needAcks > 0 {
		return
	}
	e.busy = false
	d.maybeStart(line, e)
}

// recvPut handles an eviction writeback. Stale writebacks (the owner lost
// the line to a forwarded request that raced the Put) are acknowledged
// without touching state. Staleness cannot be judged by sender identity
// alone: an owner that evicts (its Put in flight on the writeback class)
// and then re-acquires the same line is the legitimate owner again by the
// time the old Put lands, and clearing the entry then leaves that core
// holding E/M while the directory records no owner — the next exclusive
// grant mints a second owner (a SWMR violation, found by scenfuzz). Each
// exclusive grant therefore carries an epoch, and a Put retires the entry
// only when it returns the epoch of the *current* grant.
func (d *Directory) recvPut(line proto.Addr, from *L1, dirty bool, epoch uint64) {
	e := d.entry(line)
	d.observe(e.state, "recvPut")
	if !e.busy && e.state == dm && e.owner == from && e.epoch == epoch {
		e.state = di
		e.owner = nil
	}
	_ = dirty // data value lives in the committed store
	// PutAck (the L1 keeps no writeback buffer: committed values are
	// always recoverable, so the ack needs no handler).
	d.cfg.Net.Send(d.NodeFor(line), from.node, proto.ClassWB, proto.CtrlFlits, func() {})
}

// StateOf exposes directory state for invariant checks in tests:
// returns (state, ownerID or -1, sharer count, busy).
func (d *Directory) StateOf(line proto.Addr) (byte, proto.CoreID, int, bool) {
	e := d.lookup(line)
	if e == nil {
		return byte(di), -1, 0, false
	}
	owner := proto.CoreID(-1)
	if e.owner != nil {
		owner = e.owner.id
	}
	return byte(e.state), owner, len(e.sharers), e.busy
}
