package mesi

import (
	"sort"
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// wakeWant is when a WaitDisturb callback must run.
type wakeWant int

const (
	wakeNever  wakeWant = iota // not by the end of the case
	wakeAtOnce                 // in the cycle WaitDisturb was called
	wakeLater                  // only once the steps after the wait ran
)

// TestWatchContract pins the Epoch/WaitDisturb contract of
// proto.L1Controller on the L1's one watch. Core 0 samples line a, the
// case disturbs it (or not) before or after the wait, and the callback
// must run at once, later, or never. A downgrade to Shared keeps the
// copy valid and SelfInvalidate is a no-op on MESI, so neither wakes it.
func TestWatchContract(t *testing.T) {
	const a, b = proto.Addr(0x100), proto.Addr(0x140) // two lines
	type step func(eng *sim.Engine, l1s []*L1)
	access := func(core int, kind proto.AccessKind, addr proto.Addr) step {
		return func(eng *sim.Engine, l1s []*L1) {
			l1s[core].Access(proto.Request{Kind: kind, Addr: addr, Value: 1, RMW: proto.RMWFetchAdd, Args: [2]uint64{1}, Done: func(uint64) {}})
			eng.Run(0)
		}
	}
	own := func(addr proto.Addr) step { return access(0, proto.DataLoad, addr) } // exclusive grant
	share := []step{own(a), access(2, proto.DataLoad, a)}                        // a Shared at cores 0 and 2
	// evictA fills both ways of a's set (8 sets of 64-byte lines).
	evictA := func(eng *sim.Engine, l1s []*L1) {
		access(0, proto.DataLoad, a+8*proto.LineBytes)(eng, l1s)
		access(0, proto.DataLoad, a+16*proto.LineBytes)(eng, l1s)
	}
	selfInv := func(eng *sim.Engine, l1s []*L1) {
		l1s[0].SelfInvalidate(proto.AllRegions)
		eng.Run(0)
	}
	resample := func(addr proto.Addr) step {
		return func(eng *sim.Engine, l1s []*L1) {
			l1s[0].Epoch(addr)
			eng.Run(0)
		}
	}
	cases := []struct {
		name                  string
		setup, between, after []step
		waitOn                proto.Addr // default a
		want                  wakeWant
	}{
		{name: "disturbed between Epoch and WaitDisturb", setup: []step{own(a)}, between: []step{access(1, proto.SyncStore, a)}, want: wakeAtOnce},
		{name: "another line disturbed", setup: []step{own(a), own(b)}, after: []step{access(1, proto.SyncStore, b)}, want: wakeNever},
		{name: "another word of the line written locally", setup: []step{own(a)}, after: []step{access(0, proto.DataStore, a+8)}, want: wakeNever},
		{name: "eviction", setup: []step{own(a)}, after: []step{evictA}, want: wakeLater},
		{name: "downgrade by a remote read", setup: []step{own(a)}, after: []step{access(1, proto.DataLoad, a)}, want: wakeNever},
		{name: "forwarded write", setup: []step{own(a)}, after: []step{access(1, proto.SyncRMW, a)}, want: wakeLater},
		{name: "invalidation of a sharer", setup: share, after: []step{access(1, proto.SyncStore, a)}, want: wakeLater},
		{name: "self-invalidation", setup: []step{own(a)}, after: []step{selfInv}, want: wakeNever},
		{name: "superseded sample", setup: []step{own(a)}, between: []step{resample(a)}, want: wakeAtOnce},
		{name: "sample of another line", setup: []step{own(a)}, waitOn: b, want: wakeAtOnce},
		{name: "superseded while waiting", setup: []step{own(a)}, after: []step{resample(b)}, want: wakeLater},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, dir, l1s := mini()
			for _, s := range tc.setup {
				s(eng, l1s)
			}
			sample := l1s[0].Epoch(a)
			for _, s := range tc.between {
				s(eng, l1s)
			}
			waitOn := tc.waitOn
			if waitOn == 0 {
				waitOn = a
			}
			woken, at, asked := false, sim.Cycle(0), eng.Now()
			l1s[0].WaitDisturb(waitOn, sample, func() { woken, at = true, eng.Now() })
			eng.Run(0)
			if woken != (tc.want == wakeAtOnce) {
				t.Fatalf("woken before the steps after the wait: %t, want %t", woken, tc.want == wakeAtOnce)
			}
			if woken && at != asked {
				t.Fatalf("woken at cycle %d, want %d, the cycle of the wait", at, asked)
			}
			for _, s := range tc.after {
				s(eng, l1s)
			}
			if woken != (tc.want != wakeNever) {
				t.Fatalf("woken by the end: %t, want %t", woken, tc.want != wakeNever)
			}
			if err := dir.Validate(l1s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOutstandingFileBeyondHighWater issues more misses through one L1
// at once than the 17 the busiest workload keeps outstanding: stores and
// then a load to each of 24 lines, more than the L1 holds. Every third
// line's word is stored twice and every fourth line's next word once.
// Every access completes, each load reads the youngest store to its word
// through the forwarding buffer, the outstanding lines stay sorted, and
// the system validates clean.
func TestOutstandingFileBeyondHighWater(t *testing.T) {
	eng, dir, l1s := mini()
	c := l1s[0]
	issued, done := 0, 0
	issue := func(kind proto.AccessKind, addr proto.Addr, val uint64, check func(uint64)) {
		c.Access(proto.Request{Kind: kind, Addr: addr, Value: val, Done: func(v uint64) {
			done++
			if check != nil {
				check(v)
			}
		}})
		issued++
	}
	kinds := []proto.AccessKind{proto.DataStore, proto.SyncStore}
	for i := 0; i < 24; i++ {
		addr, want := proto.Addr(0x4000+i*proto.LineBytes), uint64(100+i)
		issue(kinds[i%2], addr, want, nil)
		if i%3 == 0 {
			want += 1000
			issue(proto.DataStore, addr, want, nil)
		}
		if i%4 == 0 {
			issue(proto.DataStore, addr+proto.WordBytes, want+2000, nil)
		}
		issue(proto.DataLoad, addr, 0, func(v uint64) {
			if v != want {
				t.Errorf("load of %v read %d, want the youngest store's %d", addr, v, want)
			}
		})
	}
	sorted := func() []proto.Addr {
		ls := c.OutstandingLines()
		if !sort.SliceIsSorted(ls, func(i, j int) bool { return ls[i] < ls[j] }) {
			t.Fatalf("OutstandingLines not sorted: %v", ls)
		}
		return ls
	}
	if got := len(sorted()); got <= 17 {
		t.Fatalf("%d misses outstanding after issue, want more than 17", got)
	}
	for eng.Run(25) > 0 {
		sorted()
	}
	if done != issued {
		t.Fatalf("%d of %d accesses completed", done, issued)
	}
	if ls := c.OutstandingLines(); len(ls) != 0 || c.PendingStoreCount() != 0 {
		t.Fatalf("outstanding %v with %d stores pending at quiescence", ls, c.PendingStoreCount())
	}
	if err := dir.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}
