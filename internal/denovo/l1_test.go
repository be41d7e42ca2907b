package denovo

import (
	"slices"
	"sort"
	"testing"

	"denovosync/internal/cache"
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
// proto.L1Controller on the L1's one watch. Core 0 samples word a, the
// case disturbs it (or not) before or after the wait, and the callback
// must run at once, later, or never.
func TestWatchContract(t *testing.T) {
	const a, b = proto.Addr(0x100), proto.Addr(0x108) // two words of one line
	type step func(eng *sim.Engine, l1s []*L1)
	access := func(core int, kind proto.AccessKind, addr proto.Addr) step {
		return func(eng *sim.Engine, l1s []*L1) {
			l1s[core].Access(proto.Request{Kind: kind, Addr: addr, Value: 1, RMW: proto.RMWFetchAdd, Args: [2]uint64{1}, Done: func(uint64) {}})
			eng.Run(0)
		}
	}
	register := func(addr proto.Addr) step { return access(0, proto.SyncStore, addr) }
	// evictA fills both ways of a's set (8 sets of 64-byte lines).
	evictA := func(eng *sim.Engine, l1s []*L1) {
		access(0, proto.DataLoad, a+8*proto.LineBytes)(eng, l1s)
		access(0, proto.DataLoad, a+16*proto.LineBytes)(eng, l1s)
	}
	selfInv := func(eng *sim.Engine, l1s []*L1) {
		l1s[0].SelfInvalidate(proto.NewRegionSet(0))
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
		{name: "disturbed between Epoch and WaitDisturb", setup: []step{register(a)}, between: []step{access(1, proto.SyncStore, a)}, want: wakeAtOnce},
		{name: "another word disturbed", setup: []step{register(a), register(b)}, after: []step{access(1, proto.SyncStore, b)}, want: wakeNever},
		{name: "another word read remotely", setup: []step{register(a), register(b)}, after: []step{access(1, proto.SyncLoad, b)}, want: wakeNever},
		{name: "undisturbed", setup: []step{register(a)}, after: []step{access(0, proto.SyncLoad, a)}, want: wakeNever},
		{name: "eviction", setup: []step{register(a)}, after: []step{evictA}, want: wakeLater},
		{name: "downgrade by a remote sync read", setup: []step{register(a)}, after: []step{access(1, proto.SyncLoad, a)}, want: wakeLater},
		{name: "invalidation by a remote write", setup: []step{register(a)}, after: []step{access(1, proto.SyncRMW, a)}, want: wakeLater},
		{name: "self-invalidation", setup: []step{access(0, proto.DataLoad, a)}, after: []step{selfInv}, want: wakeLater},
		{name: "superseded sample", setup: []step{register(a)}, between: []step{resample(a)}, want: wakeAtOnce},
		{name: "sample of another word", setup: []step{register(a)}, waitOn: b, want: wakeAtOnce},
		{name: "superseded while waiting", setup: []step{register(a)}, after: []step{resample(b)}, want: wakeLater},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, reg, l1s := mini()
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
			if err := reg.Validate(l1s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOutstandingFileBeyondHighWater issues more misses through one L1
// at once than the 17 the busiest workload keeps outstanding: data
// reads, sync reads, sync RMWs and data stores over 40 words spread over
// more lines than the L1 holds, so fills evict registered lines. Once a
// writeback is pending, sync stores to its units wait behind the ack.
// Every access completes, the outstanding words stay sorted, and the
// system validates clean.
func TestOutstandingFileBeyondHighWater(t *testing.T) {
	eng, reg, l1s := mini()
	c := l1s[0]
	issued, done := 0, 0
	issue := func(kind proto.AccessKind, addr proto.Addr) {
		c.Access(proto.Request{Kind: kind, Addr: addr, Value: uint64(issued), RMW: proto.RMWFetchAdd, Args: [2]uint64{1}, Done: func(uint64) { done++ }})
		issued++
	}
	kinds := []proto.AccessKind{proto.DataLoad, proto.SyncLoad, proto.SyncRMW, proto.DataStore}
	for i := 0; i < 40; i++ {
		issue(kinds[i%len(kinds)], proto.Addr(0x4000+i*(proto.LineBytes+proto.WordBytes))) // a new line and word each time
	}
	sorted := func() []proto.Addr {
		ws := c.OutstandingWords()
		if !sort.SliceIsSorted(ws, func(i, j int) bool { return ws[i] < ws[j] }) {
			t.Fatalf("OutstandingWords not sorted: %v", ws)
		}
		return ws
	}
	if got := len(sorted()); got <= 17 {
		t.Fatalf("%d misses outstanding after issue, want more than 17", got)
	}
	waited := false
	for eng.Run(25) > 0 {
		sorted()
		if wbs := c.PendingWritebacks(); !waited && len(wbs) > 0 {
			for _, u := range wbs {
				issue(proto.SyncStore, u)
			}
			waited = true
		}
	}
	if !waited {
		t.Fatal("no writeback was pending during the run")
	}
	if done != issued {
		t.Fatalf("%d of %d accesses completed", done, issued)
	}
	if ws, wbs := c.OutstandingWords(), c.PendingWritebacks(); len(ws) != 0 || len(wbs) != 0 {
		t.Fatalf("outstanding %v, pending writebacks %v at quiescence", ws, wbs)
	}
	if err := reg.Validate(l1s); err != nil {
		t.Fatal(err)
	}
}

// regionFunc resolves an address's region with a function.
type regionFunc func(proto.Addr) proto.RegionID

func (f regionFunc) RegionOf(a proto.Addr) proto.RegionID { return f(a) }

// TestSelfInvalidateDropsValidWords: SelfInvalidate drops a Valid word
// of a swept region however the word became Valid — by a data fill or by
// a forwarded sync read's R→V downgrade — and disturbs a watch on it, and
// a SelfInvalidate of regions holding no Valid word changes no state and
// wakes nothing.
func TestSelfInvalidateDropsValidWords(t *testing.T) {
	const a, b = proto.Addr(0x100), proto.Addr(0x240) // lines in regions 1 and 2
	regions := regionFunc(func(w proto.Addr) proto.RegionID {
		if w.Line() == b.Line() {
			return 2
		}
		return 1
	})
	type step struct {
		core int
		kind proto.AccessKind
		addr proto.Addr
	}
	cases := []struct {
		name  string
		setup []step
		inv   proto.RegionSet
		drop  bool // a is dropped and the watch on it woken
	}{
		{name: "made Valid by a data fill", setup: []step{{0, proto.DataLoad, a}}, inv: proto.NewRegionSet(1), drop: true},
		{name: "downgraded R to V by a forwarded sync read", setup: []step{{0, proto.SyncLoad, a}, {1, proto.SyncLoad, a}}, inv: proto.NewRegionSet(1), drop: true},
		{name: "regions holding no Valid word", setup: []step{{0, proto.DataLoad, a}, {0, proto.DataStore, b}}, inv: proto.NewRegionSet(2, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, reg, l1s := miniRegions(regions)
			c := l1s[0]
			for _, s := range tc.setup {
				l1s[s.core].Access(proto.Request{Kind: s.kind, Addr: s.addr, Value: 1, Region: regions(s.addr), Done: func(uint64) {}})
				eng.Run(0)
			}
			state := func() cache.WordState { return c.cache.Lookup(a).WordState[a.WordIndex()] }
			if st := state(); st != wv {
				t.Fatalf("after setup word %v is in state %d, want Valid", a, st)
			}
			woken := false
			c.WaitDisturb(a, c.Epoch(a), func() { woken = true })
			eng.Run(0)
			var before []cache.Line
			c.ForEachLine(func(l *cache.Line) { before = append(before, *l) })

			c.SelfInvalidate(tc.inv)
			eng.Run(0)
			if tc.drop {
				if st := state(); st != wi || !woken {
					t.Fatalf("word %v in state %d, watch woken %t; want Invalid and woken", a, st, woken)
				}
			} else {
				var after []cache.Line
				c.ForEachLine(func(l *cache.Line) { after = append(after, *l) })
				if !slices.Equal(before, after) || woken {
					t.Fatalf("SelfInvalidate(%b) changed the cache or woke the watch (woken %t)", tc.inv, woken)
				}
			}
			if err := reg.Validate(l1s); err != nil {
				t.Fatal(err)
			}
		})
	}
}
