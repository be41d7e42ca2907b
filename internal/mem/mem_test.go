package mem

import (
	"testing"

	"denovosync/internal/noc"
	"denovosync/internal/proto"
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
