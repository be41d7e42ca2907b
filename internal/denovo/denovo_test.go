package denovo

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"denovosync/internal/mem"
	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

func TestBackoffMask(t *testing.T) {
	cases := []struct {
		bits uint
		want sim.Cycle
	}{
		{9, 511},
		{12, 4095},
		{1, 1},
		{0, ^sim.Cycle(0)},
		{63, ^sim.Cycle(0)},
	}
	for _, c := range cases {
		cfg := &Config{BackoffBits: c.bits}
		if got := cfg.backoffMask(); got != c.want {
			t.Fatalf("backoffMask(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

// Property: the backoff counter always stays within its mask under an
// arbitrary mix of increments and never goes negative — the wraparound
// semantics of §4.2.1.
func TestBackoffWrapProperty(t *testing.T) {
	f := func(incs []uint16, bits uint8) bool {
		b := uint(bits%12) + 1
		cfg := &Config{BackoffBits: b, DefaultIncrement: 1, IncEveryN: 4, Backoff: true}
		l1 := &L1{cfg: cfg, incCtr: cfg.DefaultIncrement}
		mask := cfg.backoffMask()
		for range incs {
			l1.noteRemoteSyncRead()
			if l1.backoffCtr > mask {
				return false
			}
			if l1.incCtr > mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNoteRemoteSyncReadDisabledWithoutBackoff(t *testing.T) {
	cfg := &Config{Backoff: false, BackoffBits: 9, DefaultIncrement: 1, IncEveryN: 16}
	l1 := &L1{cfg: cfg, incCtr: cfg.DefaultIncrement}
	for i := 0; i < 100; i++ {
		l1.noteRemoteSyncRead()
	}
	if l1.backoffCtr != 0 {
		t.Fatal("DeNovoSync0 grew a backoff counter")
	}
}

func TestIncrementGrowthCadence(t *testing.T) {
	cfg := &Config{Backoff: true, BackoffBits: 12, DefaultIncrement: 64, IncEveryN: 64}
	l1 := &L1{cfg: cfg, incCtr: cfg.DefaultIncrement}
	for i := 0; i < 63; i++ {
		l1.noteRemoteSyncRead()
	}
	if l1.incCtr != 64 {
		t.Fatalf("increment grew early: %d", l1.incCtr)
	}
	l1.noteRemoteSyncRead() // the 64th
	if l1.incCtr != 128 {
		t.Fatalf("increment after 64th = %d, want 128", l1.incCtr)
	}
}

func TestRegClassAndAckFlits(t *testing.T) {
	if regClass(proto.DataStore) != proto.ClassST {
		t.Fatal("data write class")
	}
	for _, k := range []proto.AccessKind{proto.SyncLoad, proto.SyncStore, proto.SyncRMW} {
		if regClass(k) != proto.ClassSynch {
			t.Fatalf("%v class", k)
		}
	}
	r := &Registry{cfg: &Config{}}
	if r.ackFlits(proto.SyncLoad) != proto.WordDataFlits || r.ackFlits(proto.SyncRMW) != proto.WordDataFlits {
		t.Fatal("value-carrying acks must be word-sized at word granularity")
	}
	if r.ackFlits(proto.SyncStore) != proto.CtrlFlits || r.ackFlits(proto.DataStore) != proto.CtrlFlits {
		t.Fatal("blind-write acks must be control-sized")
	}
	rl := &Registry{cfg: &Config{UnitWords: proto.WordsPerLine}}
	if rl.ackFlits(proto.SyncLoad) != proto.LineDataFlits {
		t.Fatal("line-granularity value acks must be line-sized")
	}
}

func TestUnitOf(t *testing.T) {
	cw := &Config{} // word granularity
	if cw.unitOf(0x1234) != 0x1234 {
		t.Fatal("word granularity must not align")
	}
	cl := &Config{UnitWords: proto.WordsPerLine}
	if cl.unitOf(0x1234) != 0x1200 {
		t.Fatalf("line granularity unit = %v", cl.unitOf(0x1234))
	}
	c4 := &Config{UnitWords: 4}
	if c4.unitOf(0x1234) != 0x1230 {
		t.Fatalf("4-word unit = %v", c4.unitOf(0x1234))
	}
}

// mini builds a 4-tile DeNovo system without cores for direct controller
// tests.
func mini() (*sim.Engine, *Registry, []*L1) { return miniRegions(nil) }

// miniRegions is mini with the L1s resolving fills' regions through
// regions (nil: every word in region 0).
func miniRegions(regions proto.RegionMapper) (*sim.Engine, *Registry, []*L1) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Mesh{W: 2, H: 2}, 10, 3)
	store := mem.NewStore()
	dram := mem.NewDRAM(eng, net, 169)
	cfg := &Config{
		Eng: eng, Net: net, Store: store, DRAM: dram,
		L1Size: 1024, L1Ways: 2,
		L1AccessLat: 1, L2AccessLat: 27, RemoteL1Lat: 9,
	}
	reg := NewRegistry(cfg, 4)
	var l1s []*L1
	for i := 0; i < 4; i++ {
		l1 := NewL1(cfg, proto.CoreID(i), proto.NodeID(i), regions)
		l1.SetRegistry(reg)
		l1s = append(l1s, l1)
	}
	reg.SetL1s(l1s)
	return eng, reg, l1s
}

// TestRegistrationTransfer drives a write, a remote sync read (downgrade),
// and a remote write (invalidate) through the raw controllers.
func TestRegistrationTransfer(t *testing.T) {
	eng, reg, l1s := mini()
	addr := proto.Addr(0x100)
	done := 0
	l1s[0].Access(proto.Request{Kind: proto.SyncStore, Addr: addr, Value: 5, Done: func(uint64) { done++ }})
	eng.Run(0)
	if reg.OwnerOf(addr) != 0 {
		t.Fatalf("owner = %d, want 0", reg.OwnerOf(addr))
	}
	var got uint64
	l1s[1].Access(proto.Request{Kind: proto.SyncLoad, Addr: addr, Done: func(v uint64) { got = v; done++ }})
	eng.Run(0)
	if got != 5 {
		t.Fatalf("sync read got %d, want 5", got)
	}
	if reg.OwnerOf(addr) != 1 {
		t.Fatalf("read registration did not transfer ownership: %d", reg.OwnerOf(addr))
	}
	// Previous owner downgraded to Valid, not Invalid (§4.2.1).
	if l := l1s[0].cache.Lookup(addr); l == nil || l.WordState[addr.WordIndex()] != wv {
		t.Fatal("previous registrant not downgraded to Valid")
	}
	// A remote write invalidates instead.
	l1s[2].Access(proto.Request{Kind: proto.SyncStore, Addr: addr, Value: 9, Done: func(uint64) { done++ }})
	eng.Run(0)
	if l := l1s[1].cache.Lookup(addr); l != nil && l.WordState[addr.WordIndex()] == wr {
		t.Fatal("write steal left previous registrant Registered")
	}
	if done != 3 {
		t.Fatalf("completions = %d", done)
	}
	if err := reg.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesDoubleRegistrant: the invariant checker flags a
// hand-forged second Registered copy.
func TestValidateCatchesDoubleRegistrant(t *testing.T) {
	eng, reg, l1s := mini()
	addr := proto.Addr(0x200)
	l1s[0].Access(proto.Request{Kind: proto.SyncStore, Addr: addr, Value: 1, Done: func(uint64) {}})
	eng.Run(0)
	v := l1s[1].cache.Victim(addr)
	l1s[1].cache.Install(v, addr)
	v.WordState[addr.WordIndex()] = wr
	v.Values[addr.WordIndex()] = 1
	err := reg.Validate(l1s)
	if err == nil {
		t.Fatal("validator accepted two registrants")
	}
	if want := fmt.Sprintf("word %v registered at [0 1]", addr); !strings.Contains(err.Error(), want) {
		t.Fatalf("validator error %q does not name the word and both cores (%q)", err, want)
	}
}
