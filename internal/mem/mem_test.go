package mem

import (
	"runtime"
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

// TestStoreFootprint: the image grows with the lines a run writes, not
// the pages it touches. One non-zero word per KiB over 4 MiB holds 4,096
// lines, the 1,024 pointer pages and one block table above them, and at
// most one slab of lines more; zeros written to lines and pages never
// written hold nothing. A table of whole 8 KiB pages would hold 8 MiB.
func TestStoreFootprint(t *testing.T) {
	const span, stride = 4 << 20, 1 << 10
	s := NewStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for a := proto.Addr(0); a < span; a += stride {
		s.Write(a, 1)
		s.Write(a+proto.LineBytes, 0) // a line never written
		s.Write(span+a, 0)            // a page never written
	}
	runtime.ReadMemStats(&after)
	const (
		lines     = span / stride
		pages     = span / proto.PageBytes
		lineBytes = proto.WordsPerLine * 8 // a line of word values
		ptrPage   = proto.LinesPerPage * 8 // a page of line pointers
		ptrBlock  = 1 << 10 * 8            // a 4 MiB block's page pointers
		budget    = lines*lineBytes + pages*ptrPage + ptrBlock + slabLines*lineBytes
	)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("%d non-zero words on %d pages took %d bytes, want at most %d", lines, pages, got, budget)
	}
	for a := proto.Addr(0); a < 2*span; a += stride {
		want := uint64(0)
		if a < span {
			want = 1
		}
		if got := s.Read(a); got != want {
			t.Fatalf("Read(%v) = %d, want %d", a, got, want)
		}
	}
}

// storeOpBytes is the size of one encoded FuzzStore operation.
const storeOpBytes = 4

// storeSpans are the 8 KiB windows FuzzStore addresses: each straddles a
// page boundary, the second a 4 MiB block boundary and the third
// DenseLimit (4 GiB), where the image's table changes from dense to
// sparse; the fourth lies far above it.
var storeSpans = [4]proto.Addr{
	0x1_0000 - proto.PageBytes,
	1<<28 - proto.PageBytes,
	proto.DenseLimit - proto.PageBytes,
	1<<40 - proto.PageBytes,
}

// checkStore runs an encoded program of Write, Read and ReadLine
// operations against a Store and a map model of the words written, and
// fails on any difference. b[0]'s low two bits pick the operation (two
// of the four codes write), its next two the span; b[1] and b[2] the
// byte offset in the span, b[3] the value written (zero when b[3] is
// zero). At the end every word written must read back, and the image
// must hold exactly the lines that were ever written a non-zero value.
func checkStore(t *testing.T, prog []byte) {
	s := NewStore()
	model := map[proto.Addr]uint64{}
	written := map[proto.Addr]bool{} // lines written a non-zero value
	for ; len(prog) >= storeOpBytes; prog = prog[storeOpBytes:] {
		a := storeSpans[prog[0]>>2&3] + proto.Addr(prog[1]) + proto.Addr(prog[2]&0x1f)<<8
		switch prog[0] & 3 {
		case 0, 3:
			v := uint64(prog[3]) * (1<<56 + 1)
			s.Write(a, v)
			model[a.Word()] = v
			if v != 0 {
				written[a.Line()] = true
			}
		case 1:
			if got, want := s.Read(a), model[a.Word()]; got != want {
				t.Fatalf("Read(%v) = %#x, want %#x", a, got, want)
			}
		case 2:
			vals := s.ReadLine(a)
			for i, got := range vals {
				w := a.Line() + proto.Addr(i*proto.WordBytes)
				if want := model[w]; got != want {
					t.Fatalf("ReadLine(%v)[%d] = %#x, want %#x", a, i, got, want)
				}
			}
		}
	}
	for w, want := range model {
		if got := s.Read(w); got != want {
			t.Fatalf("Read(%v) = %#x at the end, want %#x", w, got, want)
		}
	}
	held := 0
	s.pages.Walk(func(base proto.Addr, p *page) {
		for i, l := range p {
			if l != nil {
				held++
				if a := base + proto.Addr(i*proto.LineBytes); !written[a] {
					t.Fatalf("the image holds line %v, which was never written a non-zero value", a)
				}
			}
		}
	})
	if held != len(written) {
		t.Fatalf("the image holds %d lines, want the %d written a non-zero value", held, len(written))
	}
	if zeroLine != (line{}) {
		t.Fatalf("the shared zero line was written: %v", zeroLine)
	}
}

// FuzzStore checks Store against a map model; the checked-in corpus
// under testdata/fuzz/FuzzStore runs as seeds with every go test.
func FuzzStore(f *testing.F) {
	f.Fuzz(checkStore)
}
