package cpu

import (
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// fakeL1 is a minimal L1 with fixed hit latency for core-accounting tests.
type fakeL1 struct {
	eng     *sim.Engine
	latency sim.Cycle
	backoff sim.Cycle
	stats   proto.L1Stats
	mem     map[proto.Addr]uint64
}

func newFakeL1(eng *sim.Engine, lat sim.Cycle) *fakeL1 {
	return &fakeL1{eng: eng, latency: lat, mem: map[proto.Addr]uint64{}}
}

func (f *fakeL1) Access(req *proto.Request) {
	done := req.Done
	addr, kind, val, rmw := req.Addr, req.Kind, req.Value, req.RMW
	f.eng.Schedule(f.latency, func() {
		switch kind {
		case proto.DataStore, proto.SyncStore:
			f.mem[addr] = val
			done(0)
		case proto.SyncRMW:
			old := f.mem[addr]
			if nv, st := rmw(old); st {
				f.mem[addr] = nv
			}
			done(old)
		default:
			done(f.mem[addr])
		}
	})
}
func (f *fakeL1) SelfInvalidate(proto.RegionSet)                {}
func (f *fakeL1) SignatureRelease(proto.Addr)                   {}
func (f *fakeL1) SignatureAcquire(proto.Addr)                   {}
func (f *fakeL1) Epoch(proto.Addr) uint64                       { return 0 }
func (f *fakeL1) WaitDisturb(_ proto.Addr, _ uint64, fn func()) { f.eng.Schedule(5, fn) }
func (f *fakeL1) OnWritesDrained(fn func())                     { f.eng.Schedule(0, fn) }
func (f *fakeL1) BackoffStallCycles() sim.Cycle                 { return f.backoff }
func (f *fakeL1) Stats() *proto.L1Stats                         { return &f.stats }

var _ proto.L1Controller = (*fakeL1)(nil)

// runOne drives a single-core workload to completion and returns the core.
func runOne(t *testing.T, lat sim.Cycle, fn func(*Thread)) *Core {
	t.Helper()
	eng := sim.NewEngine()
	l1 := newFakeL1(eng, lat)
	finished := false
	core := NewCore(eng, 0, l1, func() { finished = true })
	core.Start()
	th := NewThread(core, nil, sim.NewRNG(1))
	go func() {
		defer th.Close()
		fn(th)
	}()
	eng.Run(0)
	if !finished {
		t.Fatal("thread did not finish")
	}
	return core
}

func TestComputeAccounting(t *testing.T) {
	core := runOne(t, 10, func(th *Thread) {
		th.Compute(100)
		th.Compute(50)
	})
	ct := core.Time()
	if ct.Cycles[stats.Compute] != 150 {
		t.Fatalf("compute = %d", ct.Cycles[stats.Compute])
	}
	if ct.Finish != 150 {
		t.Fatalf("finish = %d", ct.Finish)
	}
}

func TestMemOpSplitsIssueAndStall(t *testing.T) {
	core := runOne(t, 40, func(th *Thread) {
		_ = th.Load(0x100)
	})
	ct := core.Time()
	if ct.Cycles[stats.Compute] != 1 {
		t.Fatalf("issue cycle = %d, want 1", ct.Cycles[stats.Compute])
	}
	if ct.Cycles[stats.MemStall] != 39 {
		t.Fatalf("memstall = %d, want 39", ct.Cycles[stats.MemStall])
	}
}

func TestPhaseRedirection(t *testing.T) {
	core := runOne(t, 10, func(th *Thread) {
		th.SetPhase(PhaseNonSynch)
		th.Compute(100)
		_ = th.Load(4)
		th.SetPhase(PhaseBarrier)
		_ = th.Load(8)
		th.SetPhase(PhaseKernel)
		th.Compute(7)
	})
	ct := core.Time()
	if ct.Cycles[stats.NonSynch] != 110 {
		t.Fatalf("nonsynch = %d, want 110 (compute+load)", ct.Cycles[stats.NonSynch])
	}
	if ct.Cycles[stats.BarrierStall] != 10 {
		t.Fatalf("barrier = %d, want 10", ct.Cycles[stats.BarrierStall])
	}
	if ct.Cycles[stats.Compute] != 7 {
		t.Fatalf("kernel compute = %d, want 7", ct.Cycles[stats.Compute])
	}
}

func TestSWBackoffBucket(t *testing.T) {
	core := runOne(t, 1, func(th *Thread) {
		th.SWBackoff(500)
	})
	if got := core.Time().Cycles[stats.SWBackoff]; got != 500 {
		t.Fatalf("sw backoff = %d", got)
	}
}

func TestRMWHelpers(t *testing.T) {
	runOne(t, 1, func(th *Thread) {
		if th.TestAndSet(8) != 0 {
			panic("TAS initial")
		}
		if th.TestAndSet(8) != 1 {
			panic("TAS second")
		}
		if !th.CAS(12, 0, 5) {
			panic("CAS expected success")
		}
		if th.CAS(12, 0, 9) {
			panic("CAS expected failure")
		}
		if th.FetchAdd(12, 10) != 5 {
			panic("FetchAdd old value")
		}
		if th.Exchange(12, 99) != 15 {
			panic("Exchange old value")
		}
		if th.SyncLoad(12) != 99 {
			panic("final value")
		}
	})
}

func TestSpinHelperChargesCompute(t *testing.T) {
	eng := sim.NewEngine()
	l1 := newFakeL1(eng, 2)
	core := NewCore(eng, 0, l1, nil)
	core.Start()
	th := NewThread(core, nil, sim.NewRNG(1))
	go func() {
		defer th.Close()
		th.SpinSyncLoadUntil(0x40, func(v uint64) bool { return v == 3 })
	}()
	// Another event sets the value after a while (fakeL1 wakes spinners
	// every 5 cycles regardless).
	eng.Schedule(30, func() { l1.mem[0x40] = 3 })
	eng.Run(0)
	if core.Time().Finish < 30 {
		t.Fatalf("spin finished too early: %d", core.Time().Finish)
	}
	if core.Time().Cycles[stats.Compute] == 0 {
		t.Fatal("spin wait charged no compute")
	}
}

func TestZeroComputeIsFree(t *testing.T) {
	core := runOne(t, 1, func(th *Thread) {
		th.Compute(0)
		th.SWBackoff(0)
	})
	ct := core.Time()
	if ct.Busy() != 0 {
		t.Fatalf("zero-length ops charged cycles: %v", ct)
	}
}

// capL1 records the longest batch its core runs.
type capL1 struct {
	*fakeL1
	core     *Core
	maxBatch int
}

func (l *capL1) Access(req *proto.Request) {
	if n := len(l.core.batch); n > l.maxBatch {
		l.maxBatch = n
	}
	l.fakeL1.Access(req)
}

// TestStoreOnlyBatchesAreCapped: a thread that never needs a value hands
// its operations over in batches of at most maxBatch steps, and every one
// of them retires.
func TestStoreOnlyBatchesAreCapped(t *testing.T) {
	const stores = 100_000
	eng := sim.NewEngine()
	l1 := &capL1{fakeL1: newFakeL1(eng, 1)}
	core := NewCore(eng, 0, l1, nil)
	l1.core = core
	core.Start()
	th := NewThread(core, nil, sim.NewRNG(1))
	go func() {
		defer th.Close()
		for i := 0; i < stores; i++ {
			th.Store(proto.Addr(i%64*proto.WordBytes), uint64(i))
		}
	}()
	eng.Run(0)
	if !core.Finished() {
		t.Fatal("store-only thread did not finish")
	}
	if l1.maxBatch != maxBatch {
		t.Fatalf("longest batch = %d steps, want the cap %d", l1.maxBatch, maxBatch)
	}
	if core.Retired() != stores {
		t.Fatalf("retired = %d, want %d", core.Retired(), stores)
	}
	if got := core.Time().Finish; got != stores {
		t.Fatalf("finish = %d, want one cycle per store", got)
	}
}

// TestBatchedOpsRetireAndCharge: operations that return no value queue
// behind one another, yet each still charges its own cycles, and each
// one other than the pure time steps retires.
func TestBatchedOpsRetireAndCharge(t *testing.T) {
	core := runOne(t, 10, func(th *Thread) {
		th.Store(0x40, 1)                   // 1 issue + 9 stall
		th.Fence()                          // fakeL1 drains at once
		th.SelfInvalidate(proto.AllRegions) // 1
		th.AcquireSignature(0x40)           // 1
		th.ReleaseSignature(0x40)           // 1
		th.WaitDisturb(0x40, 0)             // fakeL1 wakes after 5
		th.SetPhase(PhaseKernel)
		th.Compute(7)
	})
	ct := core.Time()
	if ct.Finish != 25 {
		t.Fatalf("finish = %d, want 25", ct.Finish)
	}
	if ct.Cycles[stats.Compute] != 16 || ct.Cycles[stats.MemStall] != 9 {
		t.Fatalf("compute = %d, memstall = %d; want 16, 9", ct.Cycles[stats.Compute], ct.Cycles[stats.MemStall])
	}
	if core.Retired() != 6 {
		t.Fatalf("retired = %d, want 6 (time steps do not retire)", core.Retired())
	}
}
