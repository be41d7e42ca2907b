package alloc

import (
	"testing"
	"testing/quick"

	"denovosync/internal/proto"
	"denovosync/internal/race"
)

func TestRegionNaming(t *testing.T) {
	s := New()
	a := s.Region("alpha")
	b := s.Region("beta")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := s.Region("alpha"); got != a {
		t.Fatal("same name returned different ID")
	}
	if s.Region("default") != 0 {
		t.Fatal("default region is not 0")
	}
}

func TestAllocTagsWords(t *testing.T) {
	s := New()
	r := s.Region("data")
	a := s.Alloc(4, r)
	for i := 0; i < 4; i++ {
		if got := s.RegionOf(a + proto.Addr(i*proto.WordBytes)); got != r {
			t.Fatalf("word %d region = %d, want %d", i, got, r)
		}
	}
	if s.RegionOf(a+16) == r && s.RegionOf(a+16) != 0 {
		t.Fatal("untagged word has a region")
	}
}

func TestAllocAligned(t *testing.T) {
	s := New()
	s.Alloc(3, 0) // misalign the bump pointer
	a := s.AllocAligned(2, 0)
	if a%proto.LineBytes != 0 {
		t.Fatalf("AllocAligned returned %v, not line-aligned", a)
	}
}

func TestAllocPadded(t *testing.T) {
	s := New()
	a := s.AllocPadded(0)
	b := s.AllocPadded(0)
	if a.Line() == b.Line() {
		t.Fatal("padded allocations share a line")
	}
	if a%proto.LineBytes != 0 {
		t.Fatal("padded word not line-aligned")
	}
}

func TestAllocPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	s.Alloc(0, 0)
}

// Property: allocations never overlap, regardless of the sequence of
// sizes and alignment kinds.
func TestAllocNonOverlapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := New()
		type span struct{ lo, hi proto.Addr }
		var spans []span
		for _, op := range ops {
			words := int(op%7) + 1
			var a proto.Addr
			switch op % 3 {
			case 0:
				a = s.Alloc(words, 0)
			case 1:
				a = s.AllocAligned(words, 0)
			case 2:
				a = s.AllocPadded(0)
				words = 1
			}
			sp := span{a, a + proto.Addr(words*proto.WordBytes)}
			for _, o := range spans {
				if sp.lo < o.hi && o.lo < sp.hi {
					return false
				}
			}
			spans = append(spans, sp)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUsed(t *testing.T) {
	s := New()
	if s.Used() != 0 {
		t.Fatal("fresh space reports usage")
	}
	s.Alloc(4, 0)
	if s.Used() != 16 {
		t.Fatalf("Used = %d, want 16", s.Used())
	}
}

// TestLaneOverflowArena: a lane that fills its 1 MiB first arena
// continues in its own overflow arena at a fixed address — below 2^32 for
// counted pointers — with regions resolvable there, while every other
// lane keeps drawing exactly the addresses it drew before.
func TestLaneOverflowArena(t *testing.T) {
	s := New()
	const lane, other = 3, 4
	first, spill := s.Region("first"), s.Region("spill")
	perArena := int(laneStride / proto.LineBytes)
	for i := 0; i < perArena; i++ {
		a := s.LaneAllocAligned(lane, 2, first)
		if want := proto.Addr(0x1030_0000) + proto.Addr(i)*proto.LineBytes; a != want {
			t.Fatalf("allocation %d at %#x, want %#x", i, uint64(a), uint64(want))
		}
	}
	a := s.LaneAllocAligned(lane, 2, spill)
	if a != 0x5060_0000 {
		t.Fatalf("first overflow allocation at %#x, want 0x5060_0000", uint64(a))
	}
	b := s.LaneAllocAligned(lane, 3, spill)
	if b != a+proto.LineBytes {
		t.Fatalf("second overflow allocation at %#x, want %#x", uint64(b), uint64(a+proto.LineBytes))
	}
	for _, c := range []struct {
		addr proto.Addr
		want proto.RegionID
	}{
		{0x1030_0000, first},
		{0x1040_0000 - proto.LineBytes + proto.WordBytes, first}, // last word allocated in the first arena
		{a, spill},
		{a + proto.WordBytes, spill},
		{a + 2*proto.WordBytes, 0}, // line padding after a 2-word node
		{b + 2*proto.WordBytes, spill},
		{b + 3*proto.WordBytes, 0},
	} {
		if got := s.RegionOf(c.addr); got != c.want {
			t.Errorf("RegionOf(%#x) = %d, want %d", uint64(c.addr), got, c.want)
		}
	}
	// The neighbouring lane is untouched: same first address as ever, and
	// no overflow arena.
	if got := s.LaneAllocAligned(other, 1, first); got != 0x1040_0000 {
		t.Fatalf("lane %d first allocation at %#x, want 0x1040_0000", other, uint64(got))
	}
	if got := s.RegionOf(0x5080_0000); got != 0 {
		t.Fatalf("RegionOf in lane %d's unused overflow arena = %d, want 0", other, got)
	}
	if s.lanes[other].ovf != nil {
		t.Fatal("a lane that never filled its first arena has an overflow arena")
	}
	// The top overflow arena still ends below 2^32.
	if end := ovfStart(maxLanes-1) + ovfStride; end > 1<<32 {
		t.Fatalf("overflow arenas end at %#x, past 2^32", uint64(end))
	}
}

// TestLaneOverflowExhausted: a lane that fills its overflow arena too
// still fails loudly.
func TestLaneOverflowExhausted(t *testing.T) {
	s := New()
	s.LaneAllocAligned(5, int(ovfStride/proto.WordBytes), 0) // spills, fills the overflow arena
	defer func() {
		if recover() == nil {
			t.Fatal("allocation past the overflow arena did not panic")
		}
	}()
	s.LaneAllocAligned(5, 1, 0)
}

// TestRegionOfAllocatesNothing: resolving a region — in the shared space,
// a lane's first arena, its overflow arena, or unallocated space — is a
// table read.
func TestRegionOfAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	s := New()
	r := s.Region("r")
	shared := s.AllocAligned(4, r)
	lane := s.LaneAllocAligned(2, 2, r)
	s.LaneAllocAligned(3, int(laneStride/proto.WordBytes), r) // fills lane 3's first arena
	ovf := s.LaneAllocAligned(3, 2, r)
	addrs := []proto.Addr{shared, shared + 3*proto.WordBytes, lane, ovf, ovf + 2*proto.WordBytes, 0, laneBase - proto.WordBytes, ovfStart(9)}
	var sum proto.RegionID
	lookups := func() {
		for _, a := range addrs {
			sum += s.RegionOf(a)
		}
	}
	if n := testing.AllocsPerRun(100, lookups); n != 0 {
		t.Fatalf("RegionOf allocated %.1f times per round, want 0", n)
	}
	if sum == 0 {
		t.Fatal("no address resolved to its region")
	}
}
