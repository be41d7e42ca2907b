// Package mem provides the backing store for simulated memory values and
// the DRAM/memory-controller timing model.
//
// Values: the simulator keeps one committed value per word (the "ground
// truth"), updated at each access's protocol commit point. L1 caches hold
// snapshots taken at fill time, so protocol-visible staleness (a MESI core
// spinning on a yet-to-be-invalidated copy, a DeNovo core reading a stale
// Valid word) behaves exactly as the protocol allows.
package mem

import (
	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// Store is the word-granularity committed-value memory image. Every
// tile's L2 bank reads and commits through it, and writes happen only at
// protocol commit points.
//
// The image is a proto.Pages table: a page holds the values of
// proto.PageBytes of simulated memory, and a page that was never written
// reads as zeros.
type Store struct {
	pages proto.Pages[page]
}

// page holds the values of proto.PageBytes of simulated memory.
type page [proto.PageBytes / proto.WordBytes]uint64

// NewStore returns an empty (all-zero) memory image.
func NewStore() *Store { return &Store{} }

// wordIndex is the index of word-aligned address w in its page.
func wordIndex(w proto.Addr) proto.Addr { return w % proto.PageBytes / proto.WordBytes }

// Read returns the committed value of the word containing addr.
func (s *Store) Read(addr proto.Addr) uint64 {
	w := addr.Word()
	if p := s.pages.Get(w); p != nil {
		return p[wordIndex(w)]
	}
	return 0
}

// Write commits value to the word containing addr.
func (s *Store) Write(addr proto.Addr, value uint64) {
	w := addr.Word()
	s.pages.Page(w)[wordIndex(w)] = value
}

// ReadLine returns the committed values of all words in addr's line.
func (s *Store) ReadLine(addr proto.Addr) [proto.WordsPerLine]uint64 {
	line := addr.Line()
	p := s.pages.Get(line)
	if p == nil {
		return [proto.WordsPerLine]uint64{}
	}
	i := wordIndex(line)
	return [proto.WordsPerLine]uint64(p[i : i+proto.WordsPerLine])
}

// DRAM models the off-chip memory behind the four on-chip controllers.
// An access from an L2 bank travels bank → controller, waits the DRAM
// access latency, and returns controller → bank; the line-interleaved
// controller choice and both network legs are accounted on the mesh.
type DRAM struct {
	eng *sim.Engine
	net *noc.Network

	// AccessLatency is the controller+DRAM service time per request.
	AccessLatency sim.Cycle

	// accesses counts serviced requests per memory controller; each
	// controller's counter is incremented only by the delivery event that
	// runs at that controller.
	accesses [noc.NumMemCtrl]uint64

	// inbox holds the fetches in flight; recvFn (recv, bound once in
	// NewDRAM) receives them.
	inbox  proto.Inbox[msg]
	recvFn func(uint64)
}

// msgKind names the step a fetch is at.
type msgKind uint8

const (
	mArrive msgKind = iota // the request reached its memory controller
	mServed                // the DRAM access latency has elapsed
)

// msg is one fetch in flight: the bank that asked, the line, the traffic
// class of the triggering transaction, and the bank controller's
// continuation — its receive function and the slot of the message it
// gets back when the data arrives.
type msg struct {
	kind  msgKind
	bank  proto.NodeID
	line  proto.Addr
	class proto.MsgClass
	done  func(uint64)
	slot  uint64
}

// NewDRAM builds the memory model on net.
func NewDRAM(eng *sim.Engine, net *noc.Network, accessLatency sim.Cycle) *DRAM {
	d := &DRAM{eng: eng, net: net, AccessLatency: accessLatency}
	d.recvFn = d.recv
	return d
}

// ControllerFor returns the memory controller node serving line.
func (d *DRAM) ControllerFor(line proto.Addr) proto.NodeID {
	return d.net.MemNode(ctrlIndex(line))
}

// ctrlIndex returns the line-interleaved controller index (0..NumMemCtrl-1).
func ctrlIndex(line proto.Addr) int {
	return int(line/proto.LineBytes) % noc.NumMemCtrl
}

// Fetch simulates an L2 bank at node bank fetching line from memory. When
// the line data arrives back at the bank it calls done(slot): done is the
// bank controller's receive function and slot the message it posted to
// its own inbox for the arrival. class controls which traffic bucket the
// two messages land in (the class of the triggering transaction).
func (d *DRAM) Fetch(bank proto.NodeID, line proto.Addr, class proto.MsgClass, done func(uint64), slot uint64) {
	m := msg{kind: mArrive, bank: bank, line: line, class: class, done: done, slot: slot}
	d.net.Send(bank, d.ControllerFor(line), class, proto.CtrlFlits, d.recvFn, d.inbox.Post(m))
}

// recv is the memory controllers' receive function: a request that
// reached its controller counts an access and waits out the DRAM
// latency in the same slot, then the line travels back to the bank.
func (d *DRAM) recv(slot uint64) {
	m := d.inbox.At(slot)
	switch m.kind {
	case mArrive:
		d.accesses[ctrlIndex(m.line)]++
		m.kind = mServed
		d.eng.ScheduleCall(d.AccessLatency, d.recvFn, slot)
	case mServed:
		d.net.Send(d.ControllerFor(m.line), m.bank, m.class, proto.LineDataFlits, m.done, m.slot)
		d.inbox.Free(slot)
	default:
		panic("mem: unknown DRAM message")
	}
}

// InFlight returns the number of fetches the memory controllers have not
// answered yet: zero at quiescence.
func (d *DRAM) InFlight() int { return d.inbox.Len() }

// Accesses returns the number of DRAM requests serviced, summed over the
// controllers in index order.
func (d *DRAM) Accesses() uint64 {
	var t uint64
	for _, v := range d.accesses {
		t += v
	}
	return t
}
