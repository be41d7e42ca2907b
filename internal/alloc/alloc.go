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
	"sync/atomic"

	"denovosync/internal/proto"
)

// base keeps simulated data away from address 0 so a zero value is never a
// valid pointer (lock-free structures use 0 as nil).
const base proto.Addr = 0x1_0000

// Lane address layout. Mid-run allocations (lock-free node carving) go
// through per-thread lanes: disjoint bump arenas far above the shared
// space, so no two threads ever touch the same allocator state and the
// addresses a thread draws depend only on its own allocation sequence,
// not on how the threads interleave.
const (
	// laneBase is the first lane address; everything below it belongs to
	// the shared wiring-time space. All lane addresses stay below 2^32:
	// counted-pointer structures (PLJ queue) pack (address, serial) into
	// one 64-bit word with a 32-bit address field.
	laneBase proto.Addr = 1 << 28
	// laneStride is each lane's first arena size (1 MiB — ~16k
	// line-padded two-word nodes, enough for every kernel but the 64-core
	// MESI Herlihy heap at paper scale, which copies its whole heap per
	// operation).
	laneStride proto.Addr = 1 << 20
	// maxLanes bounds the lane index (thread/core ID); the top lane ends
	// at laneBase + maxLanes*laneStride = ovfBase.
	maxLanes = 1024
	// ovfBase is the first overflow arena: a lane whose first arena is
	// full continues in its own overflow arena at ovfBase +
	// laneID*ovfStride. The top one ends at 0xD000_0000 < 2^32.
	ovfBase   proto.Addr = laneBase + maxLanes*laneStride
	ovfStride proto.Addr = 2 << 20
)

// lane is one thread's private bump arena: a first arena and, once that
// is full, an overflow arena. next and limit are touched only by the
// owning thread; regions slots are written by the owner before the
// address escapes and read by any tile at L1-fill time, so they are
// accessed atomically (the values are race-free by the publish chain, the
// atomicity just makes the benign line-granularity prefetch well-defined).
// The ovf slice is likewise set by the owner before the first overflow
// address escapes.
type lane struct {
	next    proto.Addr
	limit   proto.Addr
	regions []uint32 // per word of the first arena
	ovf     []uint32 // per word of the overflow arena; nil until used
}

// laneStart and ovfStart locate lane id's two arenas.
func laneStart(id int) proto.Addr { return laneBase + proto.Addr(id)*laneStride }
func ovfStart(id int) proto.Addr  { return ovfBase + proto.Addr(id)*ovfStride }

// Space is a simulated address space with region tagging.
type Space struct {
	next       proto.Addr
	regionOf   map[proto.Addr]proto.RegionID // per word
	regionIDs  map[string]proto.RegionID
	nextRegion proto.RegionID

	// lanes[i] is thread i's arena, created by the owner on first use and
	// published through the atomic pointer for cross-tile RegionOf reads.
	lanes [maxLanes]atomic.Pointer[lane]
}

// New returns an empty space. Region 0 ("default") is pre-assigned to all
// otherwise untagged data.
func New() *Space {
	return &Space{
		next:       base,
		regionOf:   make(map[proto.Addr]proto.RegionID),
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
	for i := 0; i < words; i++ {
		s.regionOf[a+proto.Addr(i*proto.WordBytes)] = region
	}
	return a
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
	ln := s.lanes[laneID].Load()
	if ln == nil {
		start := laneStart(laneID)
		ln = &lane{
			next:    start,
			limit:   start + laneStride,
			regions: make([]uint32, laneStride/proto.WordBytes),
		}
		s.lanes[laneID].Store(ln)
	}
	if rem := ln.next % proto.LineBytes; rem != 0 {
		ln.next += proto.LineBytes - rem
	}
	size := proto.Addr(words * proto.WordBytes)
	if ln.next+size > ln.limit && ln.ovf == nil {
		// The first arena is full: continue in the overflow arena.
		start := ovfStart(laneID)
		ln.ovf = make([]uint32, ovfStride/proto.WordBytes)
		ln.next, ln.limit = start, start+ovfStride
	}
	a := ln.next
	ln.next += size
	if ln.next > ln.limit {
		panic("alloc: lane overflow")
	}
	regions, slot := ln.regions, (a-laneStart(laneID))/proto.WordBytes
	if ln.ovf != nil {
		regions, slot = ln.ovf, (a-ovfStart(laneID))/proto.WordBytes
	}
	for i := 0; i < words; i++ {
		atomic.StoreUint32(&regions[slot+proto.Addr(i)], uint32(region))
	}
	return a
}

// RegionOf implements proto.RegionMapper.
func (s *Space) RegionOf(a proto.Addr) proto.RegionID {
	w := a.Word()
	switch {
	case w >= ovfBase:
		li := (w - ovfBase) / ovfStride
		if li >= maxLanes {
			return 0
		}
		ln := s.lanes[li].Load()
		if ln == nil || ln.ovf == nil {
			return 0
		}
		return proto.RegionID(atomic.LoadUint32(&ln.ovf[(w-ovfStart(int(li)))/proto.WordBytes]))
	case w >= laneBase:
		li := (w - laneBase) / laneStride
		ln := s.lanes[li].Load()
		if ln == nil {
			return 0
		}
		return proto.RegionID(atomic.LoadUint32(&ln.regions[(w-laneStart(int(li)))/proto.WordBytes]))
	}
	return s.regionOf[w]
}

// Used returns the number of bytes allocated so far.
func (s *Space) Used() uint64 { return uint64(s.next - base) }

// String summarizes the space for diagnostics.
func (s *Space) String() string {
	return fmt.Sprintf("alloc.Space{%d bytes, %d regions}", s.Used(), s.nextRegion)
}

var _ proto.RegionMapper = (*Space)(nil)
