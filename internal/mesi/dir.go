package mesi

import (
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
	sharers  proto.CoreSet
	busy     bool
	needAcks int // completion messages outstanding for the current txn
	queue    []dirPending
}

// dirPage holds the entries of one proto.Pages page, by the line's index
// in the page (nil for a line never touched).
type dirPage [proto.LinesPerPage]*dirEntry

// Directory is the shared L2: home for every line, full-map sharer
// tracking, blocking per-line transactions. Banks are line-interleaved
// across tiles; bank placement only affects message distances.
type Directory struct {
	cfg     *Config
	tiles   int
	entries proto.Pages[dirPage] // line entries, across all banks
	// l1s indexes the L1s by core ID (registered by L1.SetDirectory), so
	// sharer sets can hold core IDs.
	l1s []*L1

	// inbox holds the messages in flight to the directory, including the
	// delayed work it schedules to itself; recvFn (recv, bound once in
	// NewDirectory) receives them.
	inbox  proto.Inbox[msg]
	recvFn func(uint64)

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver
}

// NewDirectory creates the directory for a tiles-tile system.
func NewDirectory(cfg *Config, tiles int) *Directory {
	d := &Directory{cfg: cfg, tiles: tiles}
	d.recvFn = d.recv
	return d
}

// recv is the directory's receive function: it runs a delivered
// message's handler, reading the message in place, and then frees its
// inbox slot.
func (d *Directory) recv(slot uint64) {
	m := d.inbox.At(slot)
	switch m.kind {
	case mGetS:
		d.recvGetS(m.addr, m.req)
	case mGetM:
		d.recvGetM(m.addr, m.req)
	case mUnblock:
		d.recvUnblock(m.addr)
	case mOwnerAck:
		d.recvOwnerAck(m.addr)
	case mPut:
		d.recvPut(m.addr, m.req, m.dirty, m.epoch)
	case mStart:
		d.start(m.addr, dirPending{m.req, m.wantM})
	case mFetched:
		d.fetched(m.addr, dirPending{m.req, m.wantM})
	default:
		panic("mesi: directory received an L1 message")
	}
	d.inbox.Free(slot)
}

// NodeFor returns the tile node hosting line's L2 bank.
func (d *Directory) NodeFor(line proto.Addr) proto.NodeID {
	return proto.NodeID(int(line/proto.LineBytes) % d.tiles)
}

// lookup returns line's entry without creating it (nil if unknown).
func (d *Directory) lookup(line proto.Addr) *dirEntry {
	if p := d.entries.Get(line); p != nil {
		return p[line.PageLine()]
	}
	return nil
}

// forEachEntry visits every entry in ascending line order (diagnostics
// and validation only).
func (d *Directory) forEachEntry(fn func(proto.Addr, *dirEntry)) {
	d.entries.Walk(func(base proto.Addr, p *dirPage) {
		for i, e := range p {
			if e != nil {
				fn(base+proto.Addr(i*proto.LineBytes), e)
			}
		}
	})
}

// entry returns line's entry, creating it.
func (d *Directory) entry(line proto.Addr) *dirEntry {
	p := d.entries.Page(line)
	i := line.PageLine()
	if p[i] == nil {
		p[i] = &dirEntry{}
	}
	return p[i]
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
	// Shift the queue down rather than reslicing past its head, so that
	// the slice keeps its capacity and enqueueing allocates nothing.
	copy(e.queue, e.queue[1:])
	e.queue = e.queue[:len(e.queue)-1]
	e.busy = true
	// Directory/L2 access latency, then a cold fetch if needed.
	d.cfg.Eng.ScheduleCall(d.cfg.L2AccessLat, d.recvFn, d.inbox.Post(msg{kind: mStart, addr: line, req: p.req, wantM: p.wantM}))
}

// start runs the transaction p once the L2 access latency has passed,
// fetching the line from memory first on its first touch.
func (d *Directory) start(line proto.Addr, p dirPending) {
	e := d.entry(line)
	if !e.resident {
		class := proto.ClassLD
		if p.wantM {
			class = proto.ClassST
		}
		d.cfg.DRAM.Fetch(d.NodeFor(line), line, class, d.recvFn, d.inbox.Post(msg{kind: mFetched, addr: line, req: p.req, wantM: p.wantM}))
		return
	}
	d.service(line, e, p)
}

// fetched makes line resident once its cold fetch arrives and runs the
// transaction that waited for it.
func (d *Directory) fetched(line proto.Addr, p dirPending) {
	e := d.entry(line)
	e.resident = true
	d.service(line, e, p)
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
		d.cfg.Net.Send(node, req.node, proto.ClassLD, proto.LineDataFlits,
			req.recvFn, req.inbox.Post(msg{kind: mData, addr: line, excl: true, epoch: ep}))
		d.maybeStart(line, e)
	case ds:
		e.sharers.Add(req.id)
		e.busy = false
		d.cfg.Net.Send(node, req.node, proto.ClassLD, proto.LineDataFlits,
			req.recvFn, req.inbox.Post(msg{kind: mData, addr: line}))
		d.maybeStart(line, e)
	case dm:
		owner := e.owner
		e.state = ds
		e.sharers.Clear()
		e.sharers.Add(owner.id)
		e.sharers.Add(req.id)
		e.owner = nil
		e.needAcks = 2 // owner's writeback/ack + requestor's Unblock
		d.cfg.Net.Send(node, owner.node, proto.ClassLD, proto.CtrlFlits,
			owner.recvFn, owner.inbox.Post(msg{kind: mFwdGetS, addr: line, req: req}))
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
		d.cfg.Net.Send(node, req.node, proto.ClassST, proto.LineDataFlits,
			req.recvFn, req.inbox.Post(msg{kind: mData, addr: line, unblock: true, epoch: ep}))
	case ds:
		invs := 0
		wasSharer := e.sharers.Has(req.id)
		// Invalidations go out in ascending core-ID order.
		for id := e.sharers.Next(0); id >= 0; id = e.sharers.Next(id + 1) {
			if id == req.id {
				continue
			}
			invs++
			s := d.l1s[id]
			d.cfg.Net.Send(node, s.node, proto.ClassInv, proto.CtrlFlits,
				s.recvFn, s.inbox.Post(msg{kind: mInv, addr: line, req: req}))
		}
		e.state = dm
		e.owner = req
		e.epoch++
		e.sharers.Clear()
		e.needAcks = 1
		// If the requestor already holds the line in S, only the ack count
		// travels (no data); otherwise a full data response.
		flits := proto.LineDataFlits
		if wasSharer {
			flits = proto.CtrlFlits
		}
		d.cfg.Net.Send(node, req.node, proto.ClassST, flits,
			req.recvFn, req.inbox.Post(msg{kind: mData, addr: line, acks: invs, unblock: true, epoch: e.epoch}))
	case dm:
		owner := e.owner
		e.owner = req
		e.epoch++
		e.needAcks = 1
		d.cfg.Net.Send(node, owner.node, proto.ClassST, proto.CtrlFlits,
			owner.recvFn, owner.inbox.Post(msg{kind: mFwdGetM, addr: line, req: req, epoch: e.epoch}))
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
	d.cfg.Net.Send(d.NodeFor(line), from.node, proto.ClassWB, proto.CtrlFlits,
		from.recvFn, from.inbox.Post(msg{kind: mPutAck, addr: line}))
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
	return byte(e.state), owner, e.sharers.Len(), e.busy
}
