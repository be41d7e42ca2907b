package machine

import (
	"testing"
	"testing/quick"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/locks"
	"denovosync/internal/proto"
)

// TestSignatureNoFalseNegatives: the Bloom signature never misses an
// inserted address (the correctness requirement of §3's dynamic option).
func TestSignatureNoFalseNegatives(t *testing.T) {
	f := func(addrs []uint32) bool {
		var sig proto.Signature
		for _, a := range addrs {
			sig.Add(proto.Addr(a))
		}
		for _, a := range addrs {
			if !sig.MightContain(proto.Addr(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureUnionAndClear(t *testing.T) {
	var a, b proto.Signature
	a.Add(0x100)
	b.Add(0x204)
	a.UnionWith(b)
	if !a.MightContain(0x100) || !a.MightContain(0x204) {
		t.Fatal("union lost members")
	}
	a.Clear()
	if !a.Empty() {
		t.Fatal("clear left residue")
	}
}

// sigParams returns a 16-core machine config with signatures enabled.
func sigParams() Params {
	p := Params16()
	p.Signatures = true
	return p
}

// TestSignatureLockCorrectness: a signature-based lock provides the same
// data visibility as region-based self-invalidation — a reader that
// cached stale data before the writer's critical section must see the
// new values after its own acquire.
func TestSignatureLockCorrectness(t *testing.T) {
	for _, prot := range []Protocol{DeNovoSync0, DeNovoSync} {
		space := alloc.New()
		region := space.Region("shared")
		data := space.AllocAligned(8, region)
		lk := locks.NewTATAS(space, space.Region("lock"), 0 /* no region inv */, true)
		lk.Signatures = true
		turn := space.AllocPadded(space.Region("turn"))
		m := New(sigParams(), prot, space)
		bad := false
		_, err := m.Run("siglock", func(th *cpu.Thread) {
			switch th.ID {
			case 0:
				// Cache stale copies of the data first.
				for i := 0; i < 8; i++ {
					_ = th.Load(data + proto.Addr(i*proto.WordBytes))
				}
				th.SyncStore(turn, 1)
				// Wait for the writer's release, then acquire: the
				// signature must invalidate our stale copies.
				th.SpinSyncLoadUntil(turn, func(v uint64) bool { return v == 2 })
				tk := lk.Acquire(th)
				for i := 0; i < 8; i++ {
					if v := th.Load(data + proto.Addr(i*proto.WordBytes)); v != uint64(i+100) {
						bad = true
					}
				}
				lk.Release(th, tk)
			case 1:
				th.SpinSyncLoadUntil(turn, func(v uint64) bool { return v == 1 })
				tk := lk.Acquire(th)
				for i := 0; i < 8; i++ {
					th.Store(data+proto.Addr(i*proto.WordBytes), uint64(i+100))
				}
				th.Fence()
				lk.Release(th, tk)
				th.SyncStore(turn, 2)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		if bad {
			t.Fatalf("%v: stale data visible through signature lock", prot)
		}
	}
}

// TestSignatureSelectivity: words NOT written under the lock survive the
// signature acquire (unlike region invalidation, which drops the whole
// region) — the performance point of the extension.
func TestSignatureSelectivity(t *testing.T) {
	space := alloc.New()
	region := space.Region("shared")
	hot := space.AllocAligned(1, region)  // written under the lock
	cold := space.AllocAligned(1, region) // never written
	lk := locks.NewTATAS(space, space.Region("lock"), 0, true)
	lk.Signatures = true
	turn := space.AllocPadded(space.Region("turn"))
	m := New(sigParams(), DeNovoSync0, space)
	var hitsBefore, hitsAfter uint64
	_, err := m.Run("sigsel", func(th *cpu.Thread) {
		switch th.ID {
		case 0:
			_ = th.Load(hot)
			_ = th.Load(cold)
			th.SyncStore(turn, 1)
			th.SpinSyncLoadUntil(turn, func(v uint64) bool { return v == 2 })
			tk := lk.Acquire(th)
			th.Flush() // the acquire's signature step is batched
			hitsBefore = m.L1s[0].Stats().Hits[proto.DataLoad]
			_ = th.Load(cold) // must still be cached (hit)
			hitsAfter = m.L1s[0].Stats().Hits[proto.DataLoad]
			if th.Load(hot) != 7 { // must have been invalidated (fresh value)
				panic("stale hot word after signature acquire")
			}
			lk.Release(th, tk)
		case 1:
			th.SpinSyncLoadUntil(turn, func(v uint64) bool { return v == 1 })
			tk := lk.Acquire(th)
			th.Store(hot, 7)
			th.Fence()
			lk.Release(th, tk)
			th.SyncStore(turn, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hitsAfter != hitsBefore+1 {
		t.Fatalf("cold word was invalidated by the signature (hits %d -> %d)", hitsBefore, hitsAfter)
	}
}

// TestSignatureKernelFunctional: the counter kernels stay exact with
// signature locks on a signature-enabled machine.
func TestSignatureKernelFunctional(t *testing.T) {
	space := alloc.New()
	region := space.Region("ctr")
	ctr := space.AllocAligned(1, region)
	lk := locks.NewTATAS(space, space.Region("lock"), 0, true)
	lk.Signatures = true
	m := New(sigParams(), DeNovoSync, space)
	_, err := m.Run("sigctr", func(th *cpu.Thread) {
		for i := 0; i < 10; i++ {
			tk := lk.Acquire(th)
			v := th.Load(ctr)
			th.Store(ctr, v+1)
			th.Fence()
			lk.Release(th, tk)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Read(ctr); got != 160 {
		t.Fatalf("counter = %d, want 160", got)
	}
}
