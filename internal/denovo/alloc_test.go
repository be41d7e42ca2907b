package denovo

import (
	"strings"
	"testing"
	"unsafe"

	"denovosync/internal/proto"
	"denovosync/internal/race"
)

// TestHitsAllocateNothing: once a word is Registered, a load hit and a
// non-blocking store hit through Access — with a Done bound once, as the
// core binds its continuation — allocate nothing, the store's commit
// continuation included.
func TestHitsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng, _, l1s := mini()
	c := l1s[0]
	addr := proto.Addr(0x140)
	var got uint64
	done := func(v uint64) { got = v }
	c.Access(proto.Request{Kind: proto.SyncStore, Addr: addr, Value: 1, Done: done}) // registers
	eng.Run(0)
	hits := func() {
		c.Access(proto.Request{Kind: proto.DataStore, Addr: addr, Value: 7, Done: done})
		c.Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: done})
		eng.Run(0)
	}
	hits() // warm the engine
	before := c.Stats().TotalHits()
	if n := testing.AllocsPerRun(100, hits); n != 0 {
		t.Fatalf("load + store hit allocated %.1f times per run, want 0", n)
	}
	if c.Stats().TotalMisses() != 1 || c.Stats().TotalHits() == before {
		t.Fatalf("hits=%d misses=%d: the measured accesses did not all hit", c.Stats().TotalHits(), c.Stats().TotalMisses())
	}
	if got != 7 || c.PendingStoreCount() != 0 {
		t.Fatalf("load read %d with %d stores pending, want 7 and 0", got, c.PendingStoreCount())
	}
}

// TestRegistrationTransferAllocatesNothing: once warm, a two-core
// SyncRMW/SyncLoad ping-pong on one word allocates nothing. Every access
// misses, so each transfer is a registration to the registry, a forward
// to the previous registrant and an ack back — messages, continuations,
// transaction records and their waiter lists included. Between the two,
// core 0 spins on the word it holds: Epoch, then WaitDisturb, which core
// 1's sync read wakes when it downgrades core 0's copy.
func TestRegistrationTransferAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng, reg, l1s := mini()
	addr := proto.Addr(0x140)
	var got uint64
	done := func(v uint64) { got = v }
	rounds, wakes := uint64(0), uint64(0)
	woken := func() { wakes++ }
	pingPong := func() {
		l1s[0].Access(proto.Request{Kind: proto.SyncRMW, Addr: addr, RMW: proto.RMWFetchAdd, Args: [2]uint64{1}, Done: done})
		eng.Run(0)
		l1s[0].WaitDisturb(addr, l1s[0].Epoch(addr), woken)
		l1s[1].Access(proto.Request{Kind: proto.SyncLoad, Addr: addr, Done: done})
		eng.Run(0)
		rounds++
	}
	pingPong() // registers the word at core 1 and warms both L1s
	pingPong()
	misses := l1s[0].Stats().TotalMisses() + l1s[1].Stats().TotalMisses()
	if n := testing.AllocsPerRun(100, pingPong); n != 0 {
		t.Fatalf("a registration ping-pong allocated %.1f times per round, want 0", n)
	}
	if m := l1s[0].Stats().TotalMisses() + l1s[1].Stats().TotalMisses(); m != misses+2*101 {
		t.Fatalf("%d misses in 101 rounds, want every access to transfer the registration (202)", m-misses)
	}
	if got != rounds || reg.OwnerOf(addr) != 1 {
		t.Fatalf("sync read got %d after %d increments, owner %d; want equal and owner 1", got, rounds, reg.OwnerOf(addr))
	}
	if wakes != rounds {
		t.Fatalf("%d spin wake-ups in %d rounds, want one per round", wakes, rounds)
	}
	if err := reg.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// TestDataPathAllocatesNothing: once warm, the data path's messages
// allocate nothing. Each round core 1 misses twice after a
// self-invalidation: on a word the registry owns, answered by a registry
// data fill, and on a word core 0 holds Registered, forwarded to core 0
// and answered by its data fill. Core 2 stores to a line and then loads
// two lines of its set, so the stored line is evicted with a writeback
// that the registry acks. Fill values travel through the receiver's
// fills slab, so a message stays within 48 bytes.
func TestDataPathAllocatesNothing(t *testing.T) {
	if size := unsafe.Sizeof(msg{}); size > 48 {
		t.Fatalf("a DeNovo message takes %d bytes, want at most 48", size)
	}
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng, reg, l1s := mini()
	const owned, regOwned, stored = proto.Addr(0x140), proto.Addr(0x180), proto.Addr(0x200)
	var got uint64
	done := func(uint64) {}
	fwdDone := func(v uint64) { got = v }
	l1s[0].Access(proto.Request{Kind: proto.DataStore, Addr: owned, Value: 9, Done: done})
	eng.Run(0)
	round := func() {
		l1s[1].SelfInvalidate(proto.AllRegions)
		l1s[1].Access(proto.Request{Kind: proto.DataLoad, Addr: regOwned, Done: done})
		l1s[1].Access(proto.Request{Kind: proto.DataLoad, Addr: owned, Done: fwdDone})
		l1s[2].Access(proto.Request{Kind: proto.DataStore, Addr: stored, Value: 5, Done: done})
		eng.Run(0)
		l1s[2].Access(proto.Request{Kind: proto.DataLoad, Addr: stored + 8*proto.LineBytes, Done: done})
		l1s[2].Access(proto.Request{Kind: proto.DataLoad, Addr: stored + 16*proto.LineBytes, Done: done})
		eng.Run(0)
	}
	round() // warms every L1, the registry's lines and the slabs
	round()
	misses, wbs := l1s[1].Stats().TotalMisses(), l1s[2].Stats().WB
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a data-path round allocated %.1f times, want 0", n)
	}
	if m := l1s[1].Stats().TotalMisses() - misses; m != 2*101 {
		t.Fatalf("core 1 missed %d times in 101 rounds, want both loads every round (202)", m)
	}
	if w := l1s[2].Stats().WB - wbs; w != 101 {
		t.Fatalf("core 2 wrote back %d times in 101 rounds, want one writeback every round", w)
	}
	if got != 9 || reg.OwnerOf(owned) != 0 || reg.OwnerOf(stored) != -1 {
		t.Fatalf("forwarded read got %d, owners %d and %d; want 9, core 0 and the registry", got, reg.OwnerOf(owned), reg.OwnerOf(stored))
	}
	if err := reg.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesUndeliveredMessage: a message posted to an inbox and
// never delivered, or a data fill's values claimed in a slab and never
// read, fails the quiescence check.
func TestValidateCatchesUndeliveredMessage(t *testing.T) {
	eng, reg, l1s := mini()
	l1s[0].Access(proto.Request{Kind: proto.SyncStore, Addr: 0x200, Value: 1, Done: func(uint64) {}})
	eng.Run(0)
	if err := reg.Validate(l1s); err != nil {
		t.Fatalf("clean run failed validation: %v", err)
	}
	l1s[2].inbox.Post(msg{kind: mRegAck, addr: 0x200})
	err := reg.Validate(l1s)
	if err == nil || !strings.Contains(err.Error(), "undelivered") {
		t.Fatalf("planted message: Validate = %v, want an undelivered-message error", err)
	}
	l1s[2].inbox.Free(0)
	fill, _ := l1s[1].fills.Claim()
	if err := reg.Validate(l1s); err == nil || !strings.Contains(err.Error(), "L1 1 holds 1 undelivered data-fill") {
		t.Fatalf("planted fill: Validate = %v, want an undelivered data-fill error", err)
	}
	l1s[1].fills.Free(fill)
	reg.inbox.Post(msg{kind: mReg, addr: 0x200, from: l1s[2]})
	if err := reg.Validate(l1s); err == nil || !strings.Contains(err.Error(), "registry holds 1 undelivered") {
		t.Fatalf("planted registry message: Validate = %v, want an undelivered-message error", err)
	}
}
