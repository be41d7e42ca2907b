package mesi

import (
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
