package denovo

import (
	"denovosync/internal/proto"
)

// ownerL2 marks a word whose up-to-date copy lives in the L2 data bank.
const ownerL2 = -1

// regOwnerState classifies a word's registry entry relative to one
// requesting core — the registry's whole per-word "state machine" (the
// paper's point: no sharer list, no busy bit, no transient states).
// Typed so that simlint's exhauststate analyzer verifies every switch
// over it covers all three classifications, and so the atlas extractor
// (internal/lint/atlas) can read the registry's transition nests the
// same way it reads the L1s'.
type regOwnerState byte

const (
	roL2    regOwnerState = iota // registry/LLC owns the word's data
	roSelf                       // the requesting core is the registrant
	roOther                      // another core is the registrant
)

// regLine is the registry's per-line record: for every word, either the
// L2 holds the data (ownerL2) or the ID of the core registered for it.
// This replaces a MESI directory entry — there is no sharer list and no
// busy/transient state: the registry is non-blocking (§4.1).
type regLine struct {
	resident bool
	fetching bool
	owner    [proto.WordsPerLine]int16
	pending  []msg // requests that arrived during the cold fetch (see awaitResident)
	// serial counts this line's serialized ownership events (registrations
	// and writebacks). Forwarded registrations and writeback acks carry the
	// stamp so an L1 can order a late-delivered forward against its own
	// writeback — classes only give per-class point-to-point order, so the
	// network cannot (see L1.recvFwdReg).
	serial uint64
}

// ownerState classifies word's entry relative to requester from.
func (e *regLine) ownerState(word proto.Addr, from *L1) regOwnerState {
	switch o := e.owner[word.WordIndex()]; {
	case o == ownerL2:
		return roL2
	case o == int16(from.id):
		return roSelf
	default:
		return roOther
	}
}

// register points word's coherence unit at core — the single serialized
// update every registration transfer reduces to.
func (e *regLine) register(cfg *Config, word proto.Addr, core proto.CoreID) {
	base := cfg.unitOf(word)
	for k := 0; k < cfg.unitWords(); k++ {
		e.owner[(base + proto.Addr(k*proto.WordBytes)).WordIndex()] = int16(core)
	}
}

// release returns one word to registry/LLC ownership.
func (e *regLine) release(word proto.Addr) {
	e.owner[word.WordIndex()] = ownerL2
}

func newRegLine() *regLine {
	l := &regLine{}
	for i := range l.owner {
		l.owner[i] = ownerL2
	}
	return l
}

// regPage holds the line records of one proto.Pages page, by the
// line's index in the page (nil for a line never touched).
type regPage [proto.LinesPerPage]*regLine

// Registry is DeNovo's LLC-side structure: the data banks of the shared
// L2 double as the registry, storing either data or a pointer to the
// registered core (§2.2).
type Registry struct {
	cfg   *Config
	tiles int
	lines proto.Pages[regPage] // line records, across all banks
	l1s   []*L1

	// inbox holds the messages in flight to the registry, including the
	// delayed work it schedules to itself; recvFn (recv, bound once in
	// NewRegistry) receives them.
	inbox  proto.Inbox[msg]
	recvFn func(uint64)

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver
}

// NewRegistry creates the registry for a tiles-tile system.
func NewRegistry(cfg *Config, tiles int) *Registry {
	r := &Registry{cfg: cfg, tiles: tiles}
	r.recvFn = r.recv
	return r
}

// recv is the registry's receive function: it runs a delivered
// message's handler, reading the message in place, and then frees its
// inbox slot.
func (r *Registry) recv(slot uint64) {
	m := r.inbox.At(slot)
	switch m.kind {
	case mDataRead:
		r.recvDataRead(m.addr, m.from)
	case mReg:
		r.recvReg(m.addr, m.akind, m.from)
	case mWB:
		r.recvWB(m.addr, m.mask, m.from)
	case mDataReadL2:
		r.serveDataRead(m.addr, m.from)
	case mRegL2:
		r.serveReg(m.addr, m.akind, m.from)
	case mWBL2:
		r.serveWB(m.addr, m.mask, m.from)
	case mFetched:
		r.fetched(m.addr)
	default:
		panic("denovo: registry received an L1 message")
	}
	r.inbox.Free(slot)
}

// SetL1s wires the L1 controllers (after construction).
func (r *Registry) SetL1s(l1s []*L1) { r.l1s = l1s }

// NodeFor returns the tile node hosting line's L2 bank.
func (r *Registry) NodeFor(line proto.Addr) proto.NodeID {
	return proto.NodeID(int(line/proto.LineBytes) % r.tiles)
}

// line returns addr's line record, creating it.
func (r *Registry) line(addr proto.Addr) *regLine {
	p := r.lines.Page(addr)
	i := addr.PageLine()
	if p[i] == nil {
		p[i] = newRegLine()
	}
	return p[i]
}

// lookup returns word's line record without creating it (nil if unknown).
func (r *Registry) lookup(addr proto.Addr) *regLine {
	if p := r.lines.Get(addr); p != nil {
		return p[addr.PageLine()]
	}
	return nil
}

// forEachLine visits every line record in ascending line order
// (diagnostics and validation only).
func (r *Registry) forEachLine(fn func(proto.Addr, *regLine)) {
	r.lines.Walk(func(base proto.Addr, p *regPage) {
		for i, e := range p {
			if e != nil {
				fn(base+proto.Addr(i*proto.LineBytes), e)
			}
		}
	})
}

// awaitResident parks m behind e's cold fetch from memory, starting the
// fetch unless one is already in flight. Requests arriving mid-fetch
// queue in arrival order and are delivered again in that order once the
// line is resident (fetched), so per-word serialization (the single point
// the protocol relies on for write and read-registration ordering) is
// preserved.
func (r *Registry) awaitResident(e *regLine, m msg, class proto.MsgClass) {
	e.pending = append(e.pending, m)
	if e.fetching {
		return
	}
	e.fetching = true
	r.cfg.DRAM.Fetch(r.NodeFor(m.addr), m.addr.Line(), class, r.recvFn, r.inbox.Post(msg{kind: mFetched, addr: m.addr}))
}

// fetched makes word's line resident and delivers every request that
// waited for it.
func (r *Registry) fetched(word proto.Addr) {
	e := r.line(word)
	e.resident = true
	e.fetching = false
	ps := e.pending
	e.pending = nil
	for _, p := range ps {
		r.recv(r.inbox.Post(p))
	}
}

// recvDataRead services a data-load miss after the L2 access latency (see
// serveDataRead).
func (r *Registry) recvDataRead(word proto.Addr, from *L1) {
	r.cfg.Eng.ScheduleCall(r.cfg.L2AccessLat, r.recvFn, r.inbox.Post(msg{kind: mDataReadL2, addr: word, from: from}))
}

// serveDataRead services a data-load miss: if the registry owns the word
// it responds with every word of the line it owns (DeNovo responses carry
// only valid data, §7.1.1); otherwise it forwards to the registered core,
// which answers directly (and stays registered — data reads do not steal).
func (r *Registry) serveDataRead(word proto.Addr, from *L1) {
	e := r.line(word)
	if !e.resident {
		r.awaitResident(e, msg{kind: mDataReadL2, addr: word, from: from}, proto.ClassLD)
		return
	}
	node := r.NodeFor(word)
	st := e.ownerState(word, from)
	r.observe(st, "recvDataRead")
	switch st {
	case roL2, roSelf:
		// Registry-owned (or a stale self-pointer): respond with every
		// registry-owned word of the line.
		line := word.Line()
		fill, vals := from.fills.Claim()
		var mask uint16
		words := 0
		for i := range e.owner {
			if e.owner[i] == ownerL2 {
				mask |= 1 << i
				vals[i] = r.cfg.Store.Read(line + proto.Addr(i*proto.WordBytes))
				words++
			}
		}
		// Guarantee the requested word is in the response even in the
		// stale-owner corner (the committed image is always current).
		if k := word.WordIndex(); mask&(1<<k) == 0 {
			mask |= 1 << k
			vals[k] = r.cfg.Store.Read(word)
			words++
		}
		r.cfg.Net.Send(node, from.node, proto.ClassLD, proto.DataFlits(words),
			from.recvFn, from.inbox.Post(msg{kind: mDataFill, addr: line, mask: mask, fill: uint32(fill)}))
	case roOther:
		prev := r.l1s[e.owner[word.WordIndex()]]
		r.cfg.Net.Send(node, prev.node, proto.ClassLD, proto.CtrlFlits,
			prev.recvFn, prev.inbox.Post(msg{kind: mFwdDataRead, addr: word, from: from}))
	}
}

// recvReg services a registration request (data write, sync write, sync
// RMW, or sync read — the paper's single-reader rule makes sync reads
// register too) after the L2 access latency (see serveReg).
//
//atlas:unreachable denovo.Registry roSelf recvReg: the writeback-ack gate (recvWB) orders a re-registration after the evictor's writeback serialized, and that writeback either released the words or found them re-registered elsewhere — the registry never still names the re-registrant
func (r *Registry) recvReg(word proto.Addr, kind proto.AccessKind, from *L1) {
	r.cfg.Eng.ScheduleCall(r.cfg.L2AccessLat, r.recvFn, r.inbox.Post(msg{kind: mRegL2, addr: word, akind: kind, from: from}))
}

// serveReg serializes a registration. The registry is non-blocking: it
// updates the registrant immediately and forwards the request to the
// previous one, never queuing a transaction (§4.1).
func (r *Registry) serveReg(word proto.Addr, kind proto.AccessKind, from *L1) {
	class := regClass(kind)
	e := r.line(word)
	if !e.resident {
		r.awaitResident(e, msg{kind: mRegL2, addr: word, akind: kind, from: from}, class)
		return
	}
	node := r.NodeFor(word)
	st := e.ownerState(word, from)
	r.observeReg(st, kind)
	e.serial++
	seq := e.serial
	prev := e.owner[word.WordIndex()]
	// The whole coherence unit changes hands (a single word at the
	// paper's granularity).
	e.register(r.cfg, word, from.id)
	switch st {
	case roL2, roSelf:
		// Registry-owned (or a re-registration after an in-flight
		// writeback): ack directly with the committed value.
		flits := r.ackFlits(kind)
		r.cfg.Net.Send(node, from.node, class, flits,
			from.recvFn, from.inbox.Post(msg{kind: mRegGrant, addr: word, akind: kind}))
	case roOther:
		prevL1 := r.l1s[prev]
		r.cfg.Net.Send(node, prevL1.node, class, proto.CtrlFlits,
			prevL1.recvFn, prevL1.inbox.Post(msg{kind: mFwdReg, addr: word, akind: kind, from: from, serial: seq}))
	}
}

// recvWB retires an eviction writeback after the L2 access latency (see
// serveWB).
func (r *Registry) recvWB(lineAddr proto.Addr, mask uint16, from *L1) {
	r.cfg.Eng.ScheduleCall(r.cfg.L2AccessLat, r.recvFn, r.inbox.Post(msg{kind: mWBL2, addr: lineAddr, mask: mask, from: from}))
}

// serveWB retires an eviction writeback: every word still registered to
// the writer returns to registry ownership. Writebacks that raced a newer
// registration are simply stale for those words (the newer registrant's
// request was serialized first) and ignored. The ack gates the evictor's
// re-registration of the same words: without it, a forwarded registration
// aimed at the evictor's stale ownership can mutually park with the
// evictor's own new registration (a deadlock the bundled model checker
// finds; see internal/verify). The gate alone is not enough on a network
// with per-class virtual channels: a forward sent before this writeback
// serialized can still be delivered after the ack (different class), so
// the ack carries the line serial and the L1 classifies such late
// forwards as stale by comparison (see L1.recvFwdReg). A writeback can
// even find the word back in registry ownership (roL2): the evictor's
// writeback lingers in the mesh while another core registers, evicts,
// and has its own writeback release the word first.
//
// The writeback serializes through the same queue as other requests: a
// WB arriving during the line's cold fetch would otherwise be processed
// before the registration it follows (dropping it leaves a dangling
// ownership pointer — a bug the end-of-run validator caught).
func (r *Registry) serveWB(lineAddr proto.Addr, mask uint16, from *L1) {
	e := r.line(lineAddr)
	if !e.resident {
		r.awaitResident(e, msg{kind: mWBL2, addr: lineAddr, mask: mask, from: from}, proto.ClassWB)
		return
	}
	e.serial++
	seq := e.serial
	for i := range proto.WordsPerLine {
		if mask&(1<<i) == 0 {
			continue
		}
		word := lineAddr + proto.Addr(i*proto.WordBytes)
		st := e.ownerState(word, from)
		r.observe(st, "recvWB")
		if st == roSelf {
			e.release(word)
		}
	}
	r.cfg.Net.Send(r.NodeFor(lineAddr), from.node, proto.ClassWB, proto.CtrlFlits,
		from.recvFn, from.inbox.Post(msg{kind: mWBAck, addr: lineAddr, mask: mask, serial: seq}))
}

// OwnerOf exposes the registered core for tests (-1 = registry).
func (r *Registry) OwnerOf(word proto.Addr) int {
	e := r.lookup(word)
	if e == nil {
		return ownerL2
	}
	return int(e.owner[word.WordIndex()])
}

// regClass maps a registration kind to its traffic class.
func regClass(kind proto.AccessKind) proto.MsgClass {
	if kind.IsSync() {
		return proto.ClassSynch
	}
	return proto.ClassST
}

// ackFlits sizes a registration ack: sync reads and RMWs need the unit's
// data; blind writes transfer ownership without data.
func (r *Registry) ackFlits(kind proto.AccessKind) int {
	switch kind {
	case proto.SyncLoad, proto.SyncRMW:
		return proto.DataFlits(r.cfg.unitWords())
	default:
		return proto.CtrlFlits
	}
}
