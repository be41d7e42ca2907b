package alloc

import (
	"math/rand"
	"strings"
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

// TestLaneOverflowExhausted: a lane that fills its overflow arena takes
// extension arenas, up to the last one below 2^32; past that, and for a
// single allocation larger than an arena, the allocator fails loudly.
func TestLaneOverflowExhausted(t *testing.T) {
	s := New()
	s.LaneAllocAligned(5, int(ovfStride/proto.WordBytes), 0) // spills, fills the overflow arena
	if a := s.LaneAllocAligned(5, 1, 0); a != extBase {
		t.Fatalf("allocation past the overflow arena at %#x, want the first extension arena %#x", uint64(a), uint64(extBase))
	}
	// Pretend every extension arena but the last is taken.
	s.ext = make([]lineTags, int((extEnd-extBase)/extStride)-1)
	s.LaneAllocAligned(6, int(ovfStride/proto.WordBytes), 0)         // fills lane 6's overflow arena
	last := s.LaneAllocAligned(6, int(extStride/proto.WordBytes), 0) // and the last extension arena
	if last != extEnd-extStride {
		t.Fatalf("last extension arena at %#x, want %#x", uint64(last), uint64(extEnd-extStride))
	}
	for _, c := range []struct {
		name  string
		lane  int
		words int
		want  string
	}{
		{"address space", 6, 1, "exhausted the address space below 2^32"},
		{"oversized", 7, int(ovfStride/proto.WordBytes) + 1, "exceeds an arena"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one containing %q", c.name, msg, c.want)
				}
			}()
			s.LaneAllocAligned(c.lane, c.words, 0)
		}()
	}
}

// TestLaneExtensionArenas: two lanes that interleave allocations past
// 8 MiB each draw line-aligned, disjoint addresses below 2^32; the first
// 3 MiB of each lane sit exactly where they always did (first arena, then
// overflow arena), and every allocation resolves to its own region.
func TestLaneExtensionArenas(t *testing.T) {
	s := New()
	regions := []proto.RegionID{s.Region("a"), s.Region("b"), s.Region("c")}
	type lane struct {
		id, words int
		stride    proto.Addr // bytes each allocation takes, line padding included
		drawn     proto.Addr // bytes drawn so far
	}
	lanes := []*lane{{id: 3, words: 2, stride: proto.LineBytes}, {id: 60, words: 20, stride: 2 * proto.LineBytes}}
	owner := map[proto.Addr]int{} // line → lane
	type alloc struct {
		addr   proto.Addr
		words  int
		region proto.RegionID
	}
	var allocs []alloc
	for i := 0; lanes[0].drawn < 8<<20 || lanes[1].drawn < 8<<20; i++ {
		for _, ln := range lanes {
			region := regions[i%len(regions)]
			a := s.LaneAllocAligned(ln.id, ln.words, region)
			switch {
			case a%proto.LineBytes != 0:
				t.Fatalf("lane %d: allocation at %#x is not line-aligned", ln.id, uint64(a))
			case a+ln.stride > extEnd:
				t.Fatalf("lane %d: allocation at %#x ends past 2^32", ln.id, uint64(a))
			case ln.drawn < laneStride && a != laneStart(ln.id)+ln.drawn:
				t.Fatalf("lane %d: allocation at %#x, want %#x in the first arena", ln.id, uint64(a), uint64(laneStart(ln.id)+ln.drawn))
			case ln.drawn >= laneStride && ln.drawn < laneStride+ovfStride && a != ovfStart(ln.id)+ln.drawn-laneStride:
				t.Fatalf("lane %d: allocation at %#x, want %#x in the overflow arena", ln.id, uint64(a), uint64(ovfStart(ln.id)+ln.drawn-laneStride))
			case ln.drawn >= laneStride+ovfStride && a < ovfStart(maxLanes):
				t.Fatalf("lane %d: allocation %d MiB in at %#x, inside the lanes' own arenas", ln.id, ln.drawn>>20, uint64(a))
			}
			for l := a; l < a+ln.stride; l += proto.LineBytes {
				if o, taken := owner[l]; taken {
					t.Fatalf("lane %d: line %#x already drawn by lane %d", ln.id, uint64(l), o)
				}
				owner[l] = ln.id
			}
			allocs = append(allocs, alloc{a, ln.words, region})
			ln.drawn += ln.stride
		}
	}
	if len(s.ext) < 6 {
		t.Fatalf("%d extension arenas taken, want at least 6 for 2 x 5 MiB", len(s.ext))
	}
	for _, a := range allocs {
		if got := s.RegionOf(a.addr); got != a.region {
			t.Fatalf("RegionOf(%#x) = %d, want %d", uint64(a.addr), got, a.region)
		}
		if got := s.RegionOf(a.addr + proto.Addr(a.words-1)*proto.WordBytes); got != a.region {
			t.Fatalf("RegionOf(last word of %#x) = %d, want %d", uint64(a.addr), got, a.region)
		}
		if got := s.RegionOf(a.addr + proto.Addr(a.words)*proto.WordBytes); got != 0 {
			t.Fatalf("RegionOf(padding after %#x) = %d, want 0", uint64(a.addr), got)
		}
	}
	if got := s.RegionOf(extStart(len(s.ext))); got != 0 {
		t.Fatalf("RegionOf in an untaken extension arena = %d, want 0", got)
	}
}

// TestRegionOfAllocatesNothing: resolving a region — in the shared space,
// a lane's first arena, its overflow arena, an extension arena, or
// unallocated space — is a table read.
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
	s.LaneAllocAligned(4, int(ovfStride/proto.WordBytes), r) // fills lane 4's overflow arena
	ext := s.LaneAllocAligned(4, 2, r)
	addrs := []proto.Addr{shared, shared + 3*proto.WordBytes, lane, ovf, ovf + 2*proto.WordBytes, ext, ext + 2*proto.WordBytes,
		0, laneBase - proto.WordBytes, ovfStart(9), extStart(9)}
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

// TestLaneRegionTags: a lane arena's line tags resolve every word
// exactly as a per-word table would. Seeded random lane allocations of
// 1-40 words, on several lanes and regions, run through the first and
// overflow arenas into extension arenas; for every word up to each
// arena's bump pointer, and the padding words of its last line,
// RegionOf must equal a per-word reference table built alongside.
func TestLaneRegionTags(t *testing.T) {
	s := New()
	regions := []proto.RegionID{0, s.Region("a"), s.Region("b"), s.Region("c"), s.Region("d")}
	lanes := []int{0, 7, maxLanes - 1}
	rng := rand.New(rand.NewSource(1))
	// arenaOf returns the first address of the arena holding a.
	arenaOf := func(a proto.Addr) proto.Addr {
		switch {
		case a >= extBase:
			return a - (a-extBase)%extStride
		case a >= ovfBase:
			return a - (a-ovfBase)%ovfStride
		}
		return a - (a-laneBase)%laneStride
	}
	ref := map[proto.Addr][]proto.RegionID{} // by arena: per word, up to the bump pointer
	for done := false; !done; {
		done = true
		for _, id := range lanes {
			words, region := 1+rng.Intn(40), regions[rng.Intn(len(regions))]
			a := s.LaneAllocAligned(id, words, region)
			arena := arenaOf(a)
			tab := ref[arena]
			for proto.Addr(len(tab)) < (a-arena)/proto.WordBytes {
				tab = append(tab, 0)
			}
			for i := 0; i < words; i++ {
				tab = append(tab, region)
			}
			ref[arena] = tab
			if ln := s.lanes[id]; ln.ext == 0 || ln.next-extStart(ln.ext-1) < laneStride {
				done = false // run each lane 1 MiB into an extension arena
			}
		}
	}
	if len(s.ext) < len(lanes) {
		t.Fatalf("%d extension arenas taken, want one per lane at least", len(s.ext))
	}
	checked := 0
	for arena, tab := range ref {
		end := len(tab) + (proto.WordsPerLine-len(tab)%proto.WordsPerLine)%proto.WordsPerLine
		for i := 0; i < end; i++ {
			want := proto.RegionID(0)
			if i < len(tab) {
				want = tab[i]
			}
			if got := s.RegionOf(arena + proto.Addr(i*proto.WordBytes)); got != want {
				t.Fatalf("RegionOf(%#x) = %d, want %d", uint64(arena)+uint64(i*proto.WordBytes), got, want)
			}
			checked++
		}
	}
	if want := len(lanes) * int(ovfStride+laneStride) / proto.WordBytes; checked < want {
		t.Fatalf("checked %d words, want at least %d", checked, want)
	}
}
