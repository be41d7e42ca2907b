// Package proto holds definitions shared by every coherence protocol in the
// simulator: simulated addresses, cache geometry helpers, message classes
// for traffic accounting, and the access-request plumbing between a core and
// its L1 controller.
package proto

import "fmt"

// Addr is a simulated physical byte address.
type Addr uint64

const (
	// WordBytes is the coherence granularity of DeNovo and the access
	// granularity of the simulated ISA (one 4-byte word per load/store).
	WordBytes = 4
	// LineBytes is the cache-line size from Table 1 of the paper.
	LineBytes = 64
	// WordsPerLine is the number of coherence-state words per line.
	WordsPerLine = LineBytes / WordBytes
)

// Line returns the line-aligned address containing a.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// Word returns the word-aligned address containing a.
func (a Addr) Word() Addr { return a &^ (WordBytes - 1) }

// WordIndex returns a's word offset within its line (0..WordsPerLine-1).
func (a Addr) WordIndex() int { return int(a%LineBytes) / WordBytes }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// NodeID identifies a tile (core + L1 + co-located L2 bank) or a memory
// controller on the mesh.
type NodeID int

// CoreID identifies a simulated core, numbered 0..N-1.
type CoreID int

// MsgClass buckets network messages for the traffic breakdowns in the
// paper's figures. MESI tallies LD/ST/WB/Inv; DeNovo tallies
// LD/ST/WB/Synch (see §7.1, footnote 3).
type MsgClass int

const (
	ClassLD    MsgClass = iota // data load requests and their responses
	ClassST                    // data store/ownership requests and responses
	ClassWB                    // writebacks and their acks
	ClassInv                   // invalidations, inv-acks, unblocks (MESI only)
	ClassSynch                 // synchronization requests/responses (DeNovo only)
	NumMsgClasses
)

func (c MsgClass) String() string {
	switch c {
	case ClassLD:
		return "LD"
	case ClassST:
		return "ST"
	case ClassWB:
		return "WB"
	case ClassInv:
		return "Inv"
	case ClassSynch:
		return "SYNCH"
	}
	return fmt.Sprintf("MsgClass(%d)", int(c))
}

// Flit sizing: the network uses 16-bit flits (Table 1). A control message
// carries an 8-byte header; data messages add their payload.
const (
	FlitBytes     = 2
	HeaderBytes   = 8
	CtrlFlits     = HeaderBytes / FlitBytes
	LineDataFlits = CtrlFlits + LineBytes/FlitBytes
	WordDataFlits = CtrlFlits + WordBytes/FlitBytes
)

// DataFlits returns the flit count of a message carrying words data words.
func DataFlits(words int) int { return CtrlFlits + words*WordBytes/FlitBytes }

// AccessKind enumerates the memory operations a core can issue.
type AccessKind int

const (
	// Data accesses (race-free under the DRF software assumption).
	DataLoad AccessKind = iota
	DataStore
	// Synchronization accesses (racy; volatile/atomic in source terms).
	SyncLoad
	SyncStore
	SyncRMW // compare-and-swap, fetch-and-increment, test-and-set, ...
)

func (k AccessKind) String() string {
	switch k {
	case DataLoad:
		return "DataLoad"
	case DataStore:
		return "DataStore"
	case SyncLoad:
		return "SyncLoad"
	case SyncStore:
		return "SyncStore"
	case SyncRMW:
		return "SyncRMW"
	}
	return fmt.Sprintf("AccessKind(%d)", int(k))
}

// IsSync reports whether the access participates in synchronization races.
func (k AccessKind) IsSync() bool { return k >= SyncLoad }

// IsWrite reports whether the access can modify memory.
func (k AccessKind) IsWrite() bool {
	return k == DataStore || k == SyncStore || k == SyncRMW
}

// RMWOp names the atomic update a SyncRMW access applies at the point of
// registration/ownership; its operands travel in the Request (see
// ApplyRMW). The zero value is no operation.
type RMWOp uint8

const (
	RMWTestAndSet     RMWOp = iota + 1 // store 1
	RMWCompareAndSwap                  // store Args[1] if the word equals Args[0]
	RMWFetchAdd                        // store the word plus Args[0]
	RMWExchange                        // store Args[0]
)

// ApplyRMW evaluates req's read-modify-write on old, the current memory
// value: it returns the value to store and whether to store it (a failed
// CAS stores nothing). Both L1 controllers call it at their commit point.
func ApplyRMW(req *Request, old uint64) (newVal uint64, store bool) {
	switch req.RMW {
	case RMWTestAndSet:
		return 1, true
	case RMWCompareAndSwap:
		if old == req.Args[0] {
			return req.Args[1], true
		}
		return 0, false
	case RMWFetchAdd:
		return old + req.Args[0], true
	case RMWExchange:
		return req.Args[0], true
	}
	panic("proto: SyncRMW without an RMW operation")
}

// Request is one memory access handed from a core to its L1 controller.
type Request struct {
	Kind  AccessKind
	Addr  Addr
	Value uint64 // store value for DataStore/SyncStore

	// RMW is the update a SyncRMW applies and Args its operands.
	RMW  RMWOp
	Args [2]uint64

	// Region tags the address's software region (self-invalidation unit);
	// recorded at fill so region invalidations can find cached words.
	Region RegionID

	// Done is invoked exactly once when the access commits, with the value
	// read (loads and RMWs; RMWs return the pre-update value) and the cycle
	// budget is accounted by the caller from the callback time.
	Done func(value uint64)
}

// RegionID names a software-assigned data region (see §3 of the paper).
// Region 0 is the default region for unannotated data.
type RegionID int
