// Package alloc provides the simulated shared-memory allocator and the
// software region map. Disciplined software assigns every shared location
// to a region (§3 of the paper); the allocator is where workloads declare
// those assignments, and it serves as the global RegionMapper consulted by
// cores and DeNovo L1 fills.
//
// Allocation is bump-pointer and never reuses addresses, which (a) keeps
// runs deterministic and (b) sidesteps ABA on CAS-based structures the
// same way counted pointers would, without simulating them.
package alloc

import (
	"fmt"

	"denovosync/internal/proto"
)

// base keeps simulated data away from address 0 so a zero value is never a
// valid pointer (lock-free structures use 0 as nil).
const base proto.Addr = 0x1_0000

// Lane address layout. Mid-run allocations (lock-free node carving) go
// through per-thread lanes: disjoint bump arenas far above the shared
// space, so no two threads ever touch the same allocator state and, for
// the first 3 MiB a lane draws, the addresses it draws depend only on its
// own allocation sequence, not on how the threads interleave. A lane
// that outgrows that takes shared extension arenas in the order lanes
// ask for them, which a deterministic run fixes as well.
const (
	// laneBase is the first lane address; everything below it belongs to
	// the shared wiring-time space. All lane addresses stay below 2^32:
	// counted-pointer structures (PLJ queue) pack (address, serial) into
	// one 64-bit word with a 32-bit address field.
	laneBase proto.Addr = 1 << 28
	// laneStride is each lane's first arena size (1 MiB — ~16k
	// line-padded two-word nodes, enough for every kernel but the 64-core
	// Herlihy stack and heap at paper scale, which copy their whole object
	// per operation).
	laneStride proto.Addr = 1 << 20
	// maxLanes bounds the lane index (thread/core ID); the top lane ends
	// at laneBase + maxLanes*laneStride = ovfBase.
	maxLanes = 1024
	// ovfBase is the first overflow arena: a lane whose first arena is
	// full continues in its own overflow arena at ovfBase +
	// laneID*ovfStride. The top one ends at 0xD000_0000 < 2^32.
	ovfBase   proto.Addr = laneBase + maxLanes*laneStride
	ovfStride proto.Addr = 2 << 20
	// extBase is the first extension arena: a lane whose overflow arena
	// is full takes the next free one (extStride each), and the next
	// when that fills, up to the last one, which ends at 2^32 (384
	// arenas, 768 MiB).
	extBase   proto.Addr = ovfBase + maxLanes*ovfStride
	extStride proto.Addr = 2 << 20
	extEnd    proto.Addr = 1 << 32
)

// lane is one thread's private bump arena: a first arena and, once that
// is full, an overflow arena, then extension arenas. Each arena's region
// table holds one entry per word from the arena's start up to the bump
// pointer and grows with it; ovf stays nil until the lane overflows.
type lane struct {
	next    proto.Addr
	limit   proto.Addr
	regions []uint8 // per word of the first arena
	ovf     []uint8 // per word of the overflow arena
	ext     int     // 1 + the index of the extension arena in use; 0 = none
}

// laneStart and ovfStart locate lane id's two arenas, extStart extension
// arena i.
func laneStart(id int) proto.Addr { return laneBase + proto.Addr(id)*laneStride }
func ovfStart(id int) proto.Addr  { return ovfBase + proto.Addr(id)*ovfStride }
func extStart(i int) proto.Addr   { return extBase + proto.Addr(i)*extStride }

// Space is a simulated address space with region tagging. One goroutine
// runs a machine, so nothing here is synchronized.
type Space struct {
	next       proto.Addr
	regions    []uint8 // per word of the shared space, from base up to next
	regionIDs  map[string]proto.RegionID
	nextRegion proto.RegionID

	// lanes[i] is thread i's arena, created on its first allocation.
	lanes []*lane
	// ext[i] is the region table of extension arena i, in the order the
	// lanes took them.
	ext [][]uint8
}

// New returns an empty space. Region 0 ("default") is pre-assigned to all
// otherwise untagged data.
func New() *Space {
	return &Space{
		next:       base,
		regionIDs:  map[string]proto.RegionID{"default": 0},
		nextRegion: 1,
	}
}

// Region returns the region ID for name, allocating one on first use.
func (s *Space) Region(name string) proto.RegionID {
	if id, ok := s.regionIDs[name]; ok {
		return id
	}
	id := s.nextRegion
	if id >= proto.MaxRegions {
		panic("alloc: out of region IDs")
	}
	s.nextRegion++
	s.regionIDs[name] = id
	return id
}

// Alloc reserves words contiguous words tagged with region and returns the
// base address (word-aligned).
func (s *Space) Alloc(words int, region proto.RegionID) proto.Addr {
	if words <= 0 {
		panic("alloc: non-positive size")
	}
	a := s.next
	s.next += proto.Addr(words * proto.WordBytes)
	if s.next > laneBase {
		panic("alloc: shared space collides with lane arenas")
	}
	s.regions = tag(s.regions, (a-base)/proto.WordBytes, words, region)
	return a
}

// tag records region for the words [slot, slot+words) of a region table
// that covers the words below slot, and returns the grown table. Words
// skipped as padding get region 0.
func tag(tab []uint8, slot proto.Addr, words int, region proto.RegionID) []uint8 {
	if region < 0 || region >= proto.MaxRegions {
		panic("alloc: region ID out of range")
	}
	for proto.Addr(len(tab)) < slot {
		tab = append(tab, 0)
	}
	for i := 0; i < words; i++ {
		tab = append(tab, uint8(region))
	}
	return tab
}

// regionAt reads a region table, in which words past the end have
// region 0.
func regionAt(tab []uint8, slot proto.Addr) proto.RegionID {
	if slot < proto.Addr(len(tab)) {
		return proto.RegionID(tab[slot])
	}
	return 0
}

// AllocAligned reserves words words starting on a fresh cache line,
// consuming the remainder of the line as padding (the paper notes most
// software pads lock variables to avoid false sharing).
func (s *Space) AllocAligned(words int, region proto.RegionID) proto.Addr {
	if rem := s.next % proto.LineBytes; rem != 0 {
		s.next += proto.LineBytes - rem
	}
	return s.Alloc(words, region)
}

// AllocPadded reserves a single word alone on its own cache line — the
// padded-lock layout used for all synchronization variables unless a
// workload opts out (the §7.1.1 padding ablation).
func (s *Space) AllocPadded(region proto.RegionID) proto.Addr {
	a := s.AllocAligned(1, region)
	s.next = a + proto.LineBytes // consume the rest of the line
	return a
}

// LaneAllocAligned reserves words words for thread laneID, starting on a
// fresh cache line of the thread's private arena (see the lane layout
// constants). It is the mid-run allocation path: safe to call from
// workload code at any simulated time.
func (s *Space) LaneAllocAligned(laneID, words int, region proto.RegionID) proto.Addr {
	if laneID < 0 || laneID >= maxLanes {
		panic("alloc: lane ID out of range")
	}
	if words <= 0 {
		panic("alloc: non-positive size")
	}
	for len(s.lanes) <= laneID {
		s.lanes = append(s.lanes, nil)
	}
	ln := s.lanes[laneID]
	if ln == nil {
		start := laneStart(laneID)
		ln = &lane{next: start, limit: start + laneStride}
		s.lanes[laneID] = ln
	}
	if rem := ln.next % proto.LineBytes; rem != 0 {
		ln.next += proto.LineBytes - rem
	}
	size := proto.Addr(words * proto.WordBytes)
	if ln.next+size > ln.limit {
		// The arena is full: continue in the overflow arena, then in the
		// next free extension arena.
		start, stride := ovfStart(laneID), ovfStride
		if ln.ovf == nil {
			ln.ovf = []uint8{}
		} else {
			start, stride = extStart(len(s.ext)), extStride
			if start+stride > extEnd {
				panic("alloc: lane arenas exhausted the address space below 2^32")
			}
			s.ext = append(s.ext, []uint8{})
			ln.ext = len(s.ext)
		}
		ln.next, ln.limit = start, start+stride
	}
	a := ln.next
	ln.next += size
	if ln.next > ln.limit {
		panic(fmt.Sprintf("alloc: a lane allocation of %d bytes exceeds an arena", size))
	}
	switch {
	case ln.ext > 0:
		i := ln.ext - 1
		s.ext[i] = tag(s.ext[i], (a-extStart(i))/proto.WordBytes, words, region)
	case ln.ovf != nil:
		ln.ovf = tag(ln.ovf, (a-ovfStart(laneID))/proto.WordBytes, words, region)
	default:
		ln.regions = tag(ln.regions, (a-laneStart(laneID))/proto.WordBytes, words, region)
	}
	return a
}

// RegionOf implements proto.RegionMapper.
func (s *Space) RegionOf(a proto.Addr) proto.RegionID {
	w := a.Word()
	switch {
	case w >= ovfBase:
		if w >= extBase {
			if i := (w - extBase) / extStride; i < proto.Addr(len(s.ext)) {
				return regionAt(s.ext[i], (w-extStart(int(i)))/proto.WordBytes)
			}
			return 0
		}
		li := (w - ovfBase) / ovfStride
		if li < proto.Addr(len(s.lanes)) && s.lanes[li] != nil {
			return regionAt(s.lanes[li].ovf, (w-ovfStart(int(li)))/proto.WordBytes)
		}
	case w >= laneBase:
		li := (w - laneBase) / laneStride
		if li < proto.Addr(len(s.lanes)) && s.lanes[li] != nil {
			return regionAt(s.lanes[li].regions, (w-laneStart(int(li)))/proto.WordBytes)
		}
	case w >= base:
		return regionAt(s.regions, (w-base)/proto.WordBytes)
	}
	return 0
}

// Used returns the number of bytes allocated so far.
func (s *Space) Used() uint64 { return uint64(s.next - base) }

// String summarizes the space for diagnostics.
func (s *Space) String() string {
	return fmt.Sprintf("alloc.Space{%d bytes, %d regions}", s.Used(), s.nextRegion)
}

var _ proto.RegionMapper = (*Space)(nil)
