package mesi

import (
	"strings"
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/race"
)

// TestHitsAllocateNothing: once a line is resident in M, a load hit and a
// non-blocking store hit through Access — with a Done bound once, as the
// core binds its continuation — allocate nothing, store-forwarding entry
// and commit continuation included.
func TestHitsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng, _, l1s := mini()
	c := l1s[0]
	addr := proto.Addr(0x140)
	var got uint64
	done := func(v uint64) { got = v }
	c.Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: done}) // miss: E
	eng.Run(0)
	hits := func() {
		c.Access(proto.Request{Kind: proto.DataStore, Addr: addr, Value: 7, Done: done})
		c.Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: done})
		eng.Run(0)
	}
	hits() // E→M upgrade; warms the engine and the forwarding buffer
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

// TestMissesAllocateNothing: once warm, the MESI miss paths allocate
// nothing. Each round two cores join the sharers of a line, a GetM from
// core 0 invalidates the three sharers (the acks are collected at the
// requester), and core 1's read is forwarded to core 0, the new owner —
// messages, continuations, transaction records, waiter lists and the
// sharer set included. Core 2 spins on the line meanwhile (Epoch, then
// WaitDisturb, which the invalidation wakes), and cores 3 and 2 take
// turns storing to a second line, so each store misses and waits in the
// forwarding buffer until its GetM completes.
func TestMissesAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng, dir, l1s := mini()
	addr, other := proto.Addr(0x140), proto.Addr(0x188)
	var got uint64
	done := func(v uint64) { got = v }
	stored := func(uint64) {}
	rounds, wakes := uint64(0), uint64(0)
	woken := func() { wakes++ }
	round := func() {
		for _, c := range l1s[1:] {
			c.Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: done})
		}
		l1s[3].Access(proto.Request{Kind: proto.DataStore, Addr: other, Value: rounds, Done: stored})
		eng.Run(0)
		l1s[2].WaitDisturb(addr, l1s[2].Epoch(addr), woken)
		l1s[0].Access(proto.Request{Kind: proto.SyncRMW, Addr: addr, RMW: proto.RMWFetchAdd, Args: [2]uint64{1}, Done: done})
		eng.Run(0)
		l1s[1].Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: done})
		l1s[2].Access(proto.Request{Kind: proto.DataStore, Addr: other, Value: rounds, Done: stored})
		eng.Run(0)
		rounds++
	}
	round() // cold fetch; warms every L1 and the directory
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a sharer/GetM/forwarded-GetS round allocated %.1f times, want 0", n)
	}
	if got != rounds {
		t.Fatalf("forwarded read got %d after %d increments", got, rounds)
	}
	if wakes != rounds {
		t.Fatalf("%d spin wake-ups in %d rounds, want one per round", wakes, rounds)
	}
	if st, owner, sharers, busy := dir.StateOf(addr.Line()); st != byte(ds) || owner != -1 || sharers != 2 || busy {
		t.Fatalf("after a round: state %d owner %d sharers %d busy %t, want ds with cores 0 and 1", st, owner, sharers, busy)
	}
	if st, owner, _, busy := dir.StateOf(other.Line()); st != byte(dm) || owner != 2 || busy {
		t.Fatalf("second line: state %d owner %d busy %t, want dm at core 2", st, owner, busy)
	}
	// Per round: core 0's GetM, core 1's forwarded read, the reads of
	// cores 2 and 3 (core 1 still shares the line when a round starts,
	// except the first), and the stores of cores 3 and 2 to the second
	// line.
	for i, want := range []uint64{rounds, rounds + 1, 2 * rounds, 2 * rounds} {
		if got := l1s[i].Stats().TotalMisses(); got != want {
			t.Fatalf("core %d missed %d times in %d rounds, want %d", i, got, rounds, want)
		}
	}
	if err := dir.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesUndeliveredMessage: a message posted to an inbox and
// never delivered fails the quiescence check.
func TestValidateCatchesUndeliveredMessage(t *testing.T) {
	eng, dir, l1s := mini()
	l1s[0].Access(proto.Request{Kind: proto.DataLoad, Addr: 0x200, Done: func(uint64) {}})
	eng.Run(0)
	if err := dir.Validate(l1s); err != nil {
		t.Fatalf("clean run failed validation: %v", err)
	}
	l1s[3].inbox.Post(msg{kind: mInvAck, addr: 0x200})
	if err := dir.Validate(l1s); err == nil || !strings.Contains(err.Error(), "L1 3 holds 1 undelivered") {
		t.Fatalf("planted message: Validate = %v, want an undelivered-message error", err)
	}
	l1s[3].inbox.Free(0)
	dir.inbox.Post(msg{kind: mUnblock, addr: 0x200})
	if err := dir.Validate(l1s); err == nil || !strings.Contains(err.Error(), "directory holds 1 undelivered") {
		t.Fatalf("planted directory message: Validate = %v, want an undelivered-message error", err)
	}
}
