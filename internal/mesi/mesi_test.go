package mesi

import (
	"testing"

	"denovosync/internal/mem"
	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// mini builds a 4-tile MESI system without cores (direct controller tests).
func mini() (*sim.Engine, *Directory, []*L1) {
	eng := sim.NewEngine()
	net := noc.New(eng, noc.Mesh{W: 2, H: 2}, 10, 3)
	store := mem.NewStore()
	dram := mem.NewDRAM(eng, net, 169)
	cfg := &Config{
		Eng: eng, Net: net, Store: store, DRAM: dram,
		L1Size: 1024, L1Ways: 2,
		L1AccessLat: 1, L2AccessLat: 27, RemoteL1Lat: 9,
	}
	dir := NewDirectory(cfg, 4)
	var l1s []*L1
	for i := 0; i < 4; i++ {
		l1 := NewL1(cfg, proto.CoreID(i), proto.NodeID(i))
		l1.SetDirectory(dir)
		l1s = append(l1s, l1)
	}
	return eng, dir, l1s
}

func TestDirectoryNodeFor(t *testing.T) {
	_, dir, _ := mini()
	seen := map[proto.NodeID]bool{}
	for i := 0; i < 8; i++ {
		seen[dir.NodeFor(proto.Addr(i*proto.LineBytes))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("lines interleave over %d banks, want 4", len(seen))
	}
}

// TestReadThenWriteTransitions drives GetS → E, silent E→M upgrade, and a
// remote GetM forward through the raw controllers.
func TestReadThenWriteTransitions(t *testing.T) {
	eng, dir, l1s := mini()
	addr := proto.Addr(0x100)
	var val uint64
	done := 0
	l1s[0].Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: func(v uint64) { val = v; done++ }})
	eng.Run(0)
	if done != 1 {
		t.Fatal("load never completed")
	}
	if st, owner, _, busy := dir.StateOf(addr.Line()); st != byte(dm) || owner != 0 || busy {
		t.Fatalf("after exclusive read: state=%d owner=%d busy=%t", st, owner, busy)
	}
	_ = val
	// Silent E→M upgrade on write.
	l1s[0].Access(proto.Request{Kind: proto.DataStore, Addr: addr, Value: 7, Done: func(uint64) { done++ }})
	eng.Run(0)
	if l1s[0].cfg.Store.Read(addr) != 7 {
		t.Fatal("write hit lost")
	}
	// Remote write: FwdGetM invalidates core 0.
	l1s[1].Access(proto.Request{Kind: proto.SyncStore, Addr: addr, Value: 9, Done: func(uint64) { done++ }})
	eng.Run(0)
	if st, owner, _, busy := dir.StateOf(addr.Line()); st != byte(dm) || owner != 1 || busy {
		t.Fatalf("after remote write: state=%d owner=%d busy=%t", st, owner, busy)
	}
	if l := l1s[0].cache.Lookup(addr); l != nil && l.LineState != li {
		t.Fatal("previous owner not invalidated")
	}
	if err := dir.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// TestSharersThenInvalidate: readers populate the sharer set; a writer's
// invalidations clear it and the acks complete at the requestor.
func TestSharersThenInvalidate(t *testing.T) {
	eng, dir, l1s := mini()
	addr := proto.Addr(0x200)
	for _, c := range l1s[:3] {
		c.Access(proto.Request{Kind: proto.DataLoad, Addr: addr, Done: func(uint64) {}})
		eng.Run(0)
	}
	if st, _, sharers, _ := dir.StateOf(addr.Line()); st != byte(ds) || sharers != 3 {
		t.Fatalf("after three reads: state=%d sharers=%d", st, sharers)
	}
	doneW := false
	l1s[3].Access(proto.Request{Kind: proto.SyncRMW, Addr: addr,
		RMW: proto.RMWFetchAdd, Args: [2]uint64{1},
		Done: func(uint64) { doneW = true }})
	eng.Run(0)
	if !doneW {
		t.Fatal("RMW never completed (ack collection broken)")
	}
	if st, owner, sharers, _ := dir.StateOf(addr.Line()); st != byte(dm) || owner != 3 || sharers != 0 {
		t.Fatalf("after invalidating write: state=%d owner=%d sharers=%d", st, owner, sharers)
	}
	for _, c := range l1s[:3] {
		if l := c.cache.Lookup(addr); l != nil && l.LineState != li {
			t.Fatal("stale sharer copy survived")
		}
	}
	if err := dir.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesCorruption: the invariant checker flags a hand-broken
// double-owner state.
func TestValidateCatchesCorruption(t *testing.T) {
	eng, dir, l1s := mini()
	addr := proto.Addr(0x300)
	l1s[0].Access(proto.Request{Kind: proto.DataStore, Addr: addr, Value: 1, Done: func(uint64) {}})
	eng.Run(0)
	// Forge a second M copy.
	v := l1s[1].cache.Victim(addr)
	l1s[1].cache.Install(v, addr)
	v.LineState = lm
	if err := dir.Validate(l1s); err == nil {
		t.Fatal("validator accepted two M copies")
	}
}

// TestBackoffStallAlwaysZero: MESI reports no hardware backoff.
func TestBackoffStallAlwaysZero(t *testing.T) {
	_, _, l1s := mini()
	if l1s[0].BackoffStallCycles() != 0 {
		t.Fatal("MESI reported backoff stalls")
	}
	l1s[0].SelfInvalidate(proto.AllRegions) // no-op must not panic
	l1s[0].SignatureAcquire(0x40)
	l1s[0].SignatureRelease(0x40)
}
