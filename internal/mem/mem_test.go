package mem

import (
	"testing"

	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/race"
	"denovosync/internal/sim"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	if s.Read(0x100) != 0 {
		t.Fatal("fresh store not zero")
	}
	s.Write(0x100, 42)
	if s.Read(0x100) != 42 {
		t.Fatal("write lost")
	}
	// Word aliasing: sub-word addresses hit the same word.
	if s.Read(0x102) != 42 {
		t.Fatal("word aliasing broken")
	}
	s.Write(0x103, 7)
	if s.Read(0x100) != 7 {
		t.Fatal("sub-word write missed the word")
	}
}

func TestReadLine(t *testing.T) {
	s := NewStore()
	base := proto.Addr(0x40)
	for i := 0; i < proto.WordsPerLine; i++ {
		s.Write(base+proto.Addr(i*proto.WordBytes), uint64(i*10))
	}
	vals := s.ReadLine(base + 20) // any addr within the line
	for i, v := range vals {
		if v != uint64(i*10) {
			t.Fatalf("word %d = %d", i, v)
		}
	}
}

// TestStoreAllocatesNothing: once a page has been written, reading and
// writing its words and reading its lines allocate nothing, in the shared
// space, in a lane arena and above the dense range alike; neither does
// reading a page never written.
func TestStoreAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewStore()
	addrs := []proto.Addr{0x1_0000, 0x1_0ff8, 0x1030_0040, 0x5060_0000, 1 << 40}
	for _, a := range addrs {
		s.Write(a, 1)
	}
	var sum uint64
	accesses := func() {
		for _, a := range addrs {
			s.Write(a, s.Read(a)+1)
			sum += s.ReadLine(a)[a.WordIndex()]
		}
		sum += s.Read(0x2_0000) + s.ReadLine(0x2_0000)[0]
	}
	if n := testing.AllocsPerRun(100, accesses); n != 0 {
		t.Fatalf("Store accesses allocated %.1f times per round, want 0", n)
	}
	if sum == 0 {
		t.Fatal("reads saw no written value")
	}
}

// TestStorePages: words on both sides of a page boundary, and of the
// dense range's end, are independent, and unwritten memory reads zero.
func TestStorePages(t *testing.T) {
	s := NewStore()
	for i, a := range []proto.Addr{proto.PageBytes - proto.WordBytes, proto.PageBytes, proto.DenseLimit - proto.WordBytes, proto.DenseLimit, 1 << 40} {
		s.Write(a, uint64(i+1))
	}
	for i, a := range []proto.Addr{proto.PageBytes - proto.WordBytes, proto.PageBytes, proto.DenseLimit - proto.WordBytes, proto.DenseLimit, 1 << 40} {
		if got := s.Read(a); got != uint64(i+1) {
			t.Fatalf("Read(%v) = %d, want %d", a, got, i+1)
		}
	}
	if line := s.ReadLine(proto.DenseLimit); line[0] != 4 || line[1] != 0 {
		t.Fatalf("ReadLine above the dense range = %v", line)
	}
	if s.Read(2*proto.PageBytes) != 0 || s.Read(proto.DenseLimit+proto.PageBytes) != 0 {
		t.Fatal("unwritten memory is not zero")
	}
}

func TestDRAMFetchTiming(t *testing.T) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Mesh{W: 4, H: 4}, 10, 3)
	d := NewDRAM(eng, net, 169)
	var at sim.Cycle
	var slot uint64
	// Bank at tile 0 (corner, same router as controller 0), line 0:
	// round trip = 0 hops + 169 + 0 hops.
	d.Fetch(0, 0, proto.ClassLD, func(s uint64) { at, slot = eng.Now(), s }, 42)
	if d.InFlight() != 1 {
		t.Fatalf("in flight after Fetch = %d, want 1", d.InFlight())
	}
	eng.Run(0)
	if at != 169 || slot != 42 {
		t.Fatalf("corner fetch completed at %d with slot %d, want 169 and 42", at, slot)
	}
	if d.InFlight() != 0 {
		t.Fatalf("in flight after the fetch = %d, want 0", d.InFlight())
	}
	if d.Accesses() != 1 {
		t.Fatalf("accesses = %d", d.Accesses())
	}
}

func TestDRAMControllerInterleave(t *testing.T) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Mesh{W: 4, H: 4}, 10, 3)
	d := NewDRAM(eng, net, 169)
	seen := map[proto.NodeID]bool{}
	for i := 0; i < 8; i++ {
		seen[d.ControllerFor(proto.Addr(i*proto.LineBytes))] = true
	}
	if len(seen) != noc.NumMemCtrl {
		t.Fatalf("lines map to %d controllers, want %d", len(seen), noc.NumMemCtrl)
	}
}
