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
	pending  []func() // requests that arrived during the cold fetch
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

// Registry is DeNovo's LLC-side structure: the data banks of the shared
// L2 double as the registry, storing either data or a pointer to the
// registered core (§2.2).
type Registry struct {
	cfg   *Config
	tiles int
	// lines is sharded per home bank: lines[b] holds the lines whose L2
	// bank is tile b, and is touched only by events running at that
	// tile.
	lines []map[proto.Addr]*regLine
	l1s   []*L1

	// obs, when set, receives one (controller, state, event) hit per
	// handler activation (see coverage.go).
	obs TransitionObserver
}

// NewRegistry creates the registry for a tiles-tile system.
func NewRegistry(cfg *Config, tiles int) *Registry {
	r := &Registry{cfg: cfg, tiles: tiles, lines: make([]map[proto.Addr]*regLine, tiles)}
	for i := range r.lines {
		r.lines[i] = make(map[proto.Addr]*regLine)
	}
	return r
}

// SetL1s wires the L1 controllers (after construction).
func (r *Registry) SetL1s(l1s []*L1) { r.l1s = l1s }

// NodeFor returns the tile node hosting line's L2 bank.
func (r *Registry) NodeFor(line proto.Addr) proto.NodeID {
	return proto.NodeID(int(line/proto.LineBytes) % r.tiles)
}

func (r *Registry) line(addr proto.Addr) *regLine {
	bank := r.lines[int(addr.Line()/proto.LineBytes)%r.tiles]
	l := bank[addr.Line()]
	if l == nil {
		l = newRegLine()
		bank[addr.Line()] = l
	}
	return l
}

// lookup returns word's line record without creating it (nil if unknown).
func (r *Registry) lookup(addr proto.Addr) *regLine {
	return r.lines[int(addr.Line()/proto.LineBytes)%r.tiles][addr.Line()]
}

// forEachLine visits every line record across all banks (diagnostics and
// validation only; callers sort whatever they collect).
func (r *Registry) forEachLine(fn func(proto.Addr, *regLine)) {
	for _, bank := range r.lines {
		for lineAddr, e := range bank { //simlint:allow determinism: callers sort collected keys
			fn(lineAddr, e)
		}
	}
}

// withResident runs fn once the line is resident, fetching it from memory
// on first touch. Requests arriving mid-fetch queue in arrival order, so
// per-word serialization (the single point the protocol relies on for
// write and read-registration ordering) is preserved.
func (r *Registry) withResident(word proto.Addr, class proto.MsgClass, fn func(*regLine)) {
	e := r.line(word)
	if e.resident {
		fn(e)
		return
	}
	e.pending = append(e.pending, func() { fn(e) })
	if e.fetching {
		return
	}
	e.fetching = true
	r.cfg.DRAM.Fetch(r.NodeFor(word), word.Line(), class, func() {
		e.resident = true
		e.fetching = false
		ps := e.pending
		e.pending = nil
		for _, p := range ps {
			p()
		}
	})
}

// recvDataRead services a data-load miss: if the registry owns the word it
// responds with every word of the line it owns (DeNovo responses carry
// only valid data, §7.1.1); otherwise it forwards to the registered core,
// which answers directly (and stays registered — data reads do not steal).
func (r *Registry) recvDataRead(word proto.Addr, from *L1) {
	r.cfg.Eng.Schedule(r.cfg.L2AccessLat, func() {
		r.withResident(word, proto.ClassLD, func(e *regLine) {
			node := r.NodeFor(word)
			st := e.ownerState(word, from)
			r.observe(st, "recvDataRead")
			switch st {
			case roL2, roSelf:
				// Registry-owned (or a stale self-pointer): respond with
				// every registry-owned word of the line.
				line := word.Line()
				var mask [proto.WordsPerLine]bool
				var vals [proto.WordsPerLine]uint64
				words := 0
				for i := range e.owner {
					if e.owner[i] == ownerL2 {
						mask[i] = true
						vals[i] = r.cfg.Store.Read(line + proto.Addr(i*proto.WordBytes))
						words++
					}
				}
				// Guarantee the requested word is in the response even in
				// the stale-owner corner (the committed image is always
				// current).
				if !mask[word.WordIndex()] {
					mask[word.WordIndex()] = true
					vals[word.WordIndex()] = r.cfg.Store.Read(word)
					words++
				}
				r.cfg.Net.Send(node, from.node, proto.ClassLD, proto.DataFlits(words), func() {
					from.recvDataFill(line, mask, vals)
				})
			case roOther:
				prev := r.l1s[e.owner[word.WordIndex()]]
				r.cfg.Net.Send(node, prev.node, proto.ClassLD, proto.CtrlFlits, func() {
					prev.recvFwdDataRead(word, from)
				})
			}
		})
	})
}

// recvReg services a registration request (data write, sync write, sync
// RMW, or sync read — the paper's single-reader rule makes sync reads
// register too). The registry is non-blocking: it updates the registrant
// immediately and forwards the request to the previous one, never queuing
// a transaction (§4.1).
//
//atlas:unreachable denovo.Registry roSelf recvReg: the writeback-ack gate (recvWB) orders a re-registration after the evictor's writeback serialized, and that writeback either released the words or found them re-registered elsewhere — the registry never still names the re-registrant
func (r *Registry) recvReg(word proto.Addr, kind proto.AccessKind, from *L1) {
	class := regClass(kind)
	r.cfg.Eng.Schedule(r.cfg.L2AccessLat, func() {
		r.withResident(word, class, func(e *regLine) {
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
				r.cfg.Net.Send(node, from.node, class, flits, func() {
					from.recvRegAck(word, kind, r.cfg.Store.Read(word))
				})
			case roOther:
				prevL1 := r.l1s[prev]
				r.cfg.Net.Send(node, prevL1.node, class, proto.CtrlFlits, func() {
					prevL1.recvFwdReg(word, kind, from, seq)
				})
			}
		})
	})
}

// recvWB retires an eviction writeback: every word still registered to the
// writer returns to registry ownership. Writebacks that raced a newer
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
func (r *Registry) recvWB(lineAddr proto.Addr, mask [proto.WordsPerLine]bool, from *L1) {
	r.cfg.Eng.Schedule(r.cfg.L2AccessLat, func() {
		// The writeback must serialize through the same queue as other
		// requests: a WB arriving during the line's cold fetch would
		// otherwise be processed before the registration it follows
		// (dropping it leaves a dangling ownership pointer — a bug the
		// end-of-run validator caught).
		r.withResident(lineAddr, proto.ClassWB, func(e *regLine) {
			e.serial++
			seq := e.serial
			for i, m := range mask {
				if !m {
					continue
				}
				word := lineAddr + proto.Addr(i*proto.WordBytes)
				st := e.ownerState(word, from)
				r.observe(st, "recvWB")
				if st == roSelf {
					e.release(word)
				}
			}
			r.cfg.Net.Send(r.NodeFor(lineAddr), from.node, proto.ClassWB, proto.CtrlFlits, func() {
				from.recvWBAck(lineAddr, mask, seq)
			})
		})
	})
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
