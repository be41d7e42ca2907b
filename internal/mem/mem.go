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
type Store struct {
	words map[proto.Addr]uint64
}

// NewStore returns an empty (all-zero) memory image.
func NewStore() *Store { return &Store{words: make(map[proto.Addr]uint64)} }

// Read returns the committed value of the word containing addr.
func (s *Store) Read(addr proto.Addr) uint64 {
	return s.words[addr.Word()]
}

// Write commits value to the word containing addr.
func (s *Store) Write(addr proto.Addr, value uint64) {
	s.words[addr.Word()] = value
}

// ReadLine returns the committed values of all words in addr's line.
func (s *Store) ReadLine(addr proto.Addr) [proto.WordsPerLine]uint64 {
	var vals [proto.WordsPerLine]uint64
	line := addr.Line()
	for i := 0; i < proto.WordsPerLine; i++ {
		vals[i] = s.words[line+proto.Addr(i*proto.WordBytes)]
	}
	return vals
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
}

// NewDRAM builds the memory model on net.
func NewDRAM(eng *sim.Engine, net *noc.Network, accessLatency sim.Cycle) *DRAM {
	return &DRAM{eng: eng, net: net, AccessLatency: accessLatency}
}

// ControllerFor returns the memory controller node serving line.
func (d *DRAM) ControllerFor(line proto.Addr) proto.NodeID {
	return d.net.MemNode(ctrlIndex(line))
}

// ctrlIndex returns the line-interleaved controller index (0..NumMemCtrl-1).
func ctrlIndex(line proto.Addr) int {
	return int(line/proto.LineBytes) % noc.NumMemCtrl
}

// Fetch simulates an L2 bank at node bank fetching line from memory,
// calling done when the line data arrives back at the bank. class controls
// which traffic bucket the two messages land in (the class of the
// triggering transaction). isWrite selects request-only traffic shape for
// writebacks to memory (data travels toward the controller instead).
func (d *DRAM) Fetch(bank proto.NodeID, line proto.Addr, class proto.MsgClass, done func()) {
	mc := d.ControllerFor(line)
	idx := ctrlIndex(line)
	d.net.Send(bank, mc, class, proto.CtrlFlits, func() {
		d.accesses[idx]++
		d.eng.Schedule(d.AccessLatency, func() {
			d.net.Send(mc, bank, class, proto.LineDataFlits, done)
		})
	})
}

// WriteBack simulates flushing a dirty line from an L2 bank to memory.
func (d *DRAM) WriteBack(bank proto.NodeID, line proto.Addr, done func()) {
	mc := d.ControllerFor(line)
	idx := ctrlIndex(line)
	d.net.Send(bank, mc, proto.ClassWB, proto.LineDataFlits, func() {
		d.accesses[idx]++
		d.eng.Schedule(d.AccessLatency, func() {
			if done != nil {
				d.net.Send(mc, bank, proto.ClassWB, proto.CtrlFlits, done)
			}
		})
	})
}

// Accesses returns the number of DRAM requests serviced, summed over the
// controllers in index order.
func (d *DRAM) Accesses() uint64 {
	var t uint64
	for _, v := range d.accesses {
		t += v
	}
	return t
}
