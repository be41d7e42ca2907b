package machine

import (
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/denovo"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// TestMESISpinIsLocal: a MESI core spinning on a cached flag generates no
// network traffic while waiting; the invalidation arrives only when the
// producer writes (§6.1.1: "waiting cores efficiently spin on a cached
// copy").
func TestMESISpinIsLocal(t *testing.T) {
	space := alloc.New()
	flag := space.AllocPadded(space.Region("sync"))
	m := New(small16(), MESI, space)
	var trafficBeforeWrite uint64
	_, err := m.Run("mesispin", func(th *cpu.Thread) {
		switch th.ID {
		case 5:
			_ = th.SyncLoad(flag) // fill
			th.SpinSyncLoadUntil(flag, func(v uint64) bool { return v == 1 })
		case 9:
			th.Compute(5000)
			th.Flush() // sample the network at simulated time 5000
			trafficBeforeWrite = m.Net.TotalTraffic()
			th.SyncStore(flag, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Between the consumer's fill and the producer's write, the spinner
	// must be silent: traffic at write time equals traffic right after the
	// initial fills (which complete well before cycle 5000).
	total := m.Net.TotalTraffic()
	if total <= trafficBeforeWrite {
		t.Fatalf("write generated no traffic (%d -> %d)", trafficBeforeWrite, total)
	}
	if trafficBeforeWrite == 0 {
		t.Fatal("initial fills generated no traffic")
	}
}

// TestDS0ReaderPingPong: with two spinning readers and no writer progress,
// DeNovoSync0's read registrations ping-pong between the readers (§4.2:
// "the synchronization data will ping-pong between the readers
// unnecessarily even while there is no intervening write"), so SYNCH
// traffic grows with waiting time. DeNovoSync's backoff damps this.
func TestDS0ReaderPingPong(t *testing.T) {
	run := func(prot Protocol) uint64 {
		space := alloc.New()
		flag := space.AllocPadded(space.Region("sync"))
		m := New(small16(), prot, space)
		_, err := m.Run("pingpong", func(th *cpu.Thread) {
			switch th.ID {
			case 0, 1:
				th.SpinSyncLoadUntil(flag, func(v uint64) bool { return v == 1 })
			case 2:
				th.Compute(20000)
				th.SyncStore(flag, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Net.Traffic()[proto.ClassSynch]
	}
	ds0 := run(DeNovoSync0)
	ds := run(DeNovoSync)
	if ds0 < 2000 {
		t.Fatalf("DS0 ping-pong traffic suspiciously low: %d", ds0)
	}
	if ds >= ds0/2 {
		t.Fatalf("backoff did not damp ping-pong: DS0=%d DS=%d", ds0, ds)
	}
}

// TestBackoffCounterDynamics exercises §4.2.1: incoming remote sync reads
// grow the backoff counter; a sync read hit resets it.
func TestBackoffCounterDynamics(t *testing.T) {
	space := alloc.New()
	flag := space.AllocPadded(space.Region("sync"))
	m := New(small16(), DeNovoSync, space)
	var peak, afterHit sim.Cycle
	_, err := m.Run("backoffctr", func(th *cpu.Thread) {
		l1 := func(id int) *denovo.L1 { return m.L1s[id].(*denovo.L1) }
		switch th.ID {
		case 0:
			_ = th.SyncLoad(flag) // register
			// Let core 1 steal registration a few times.
			for i := 0; i < 5; i++ {
				th.Compute(500)
			}
			th.Flush() // let core 1's steals play out before sampling
			peak = sim.Cycle(l1(0).BackoffCounter())
			// A sync read that ends in Registered state resets the counter.
			_ = th.SyncLoad(flag)
			_ = th.SyncLoad(flag) // now a genuine hit
			afterHit = sim.Cycle(l1(0).BackoffCounter())
		case 1:
			for i := 0; i < 4; i++ {
				th.Compute(400)
				_ = th.SyncLoad(flag) // steal registration from core 0... and back
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatal("backoff counter never grew despite remote sync reads")
	}
	if afterHit != 0 {
		t.Fatalf("sync read hit did not reset backoff counter: %d", afterHit)
	}
}

// TestIncrementCounterGrowsEveryN: §4.2.2 — every Nth incoming remote
// sync-read registration grows the increment counter; a release resets it.
func TestIncrementCounterGrowsEveryN(t *testing.T) {
	p := small16()
	p.IncEveryN = 4
	space := alloc.New()
	flag := space.AllocPadded(space.Region("sync"))
	m := New(p, DeNovoSync, space)
	var grown, afterRelease sim.Cycle
	_, err := m.Run("incctr", func(th *cpu.Thread) {
		l1 := func(id int) *denovo.L1 { return m.L1s[id].(*denovo.L1) }
		switch th.ID {
		case 0:
			_ = th.SyncLoad(flag)
			for i := 0; i < 9; i++ {
				th.Compute(300)
				_ = th.SyncLoad(flag) // re-register after each steal
			}
			grown = sim.Cycle(l1(0).IncrementCounter())
			th.SyncStore(flag, 7) // release resets the increment counter
			th.Flush()            // SyncStore is batched: let it complete before sampling
			afterRelease = sim.Cycle(l1(0).IncrementCounter())
		case 1:
			for i := 0; i < 9; i++ {
				th.Compute(300)
				_ = th.SyncLoad(flag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown <= sim.Cycle(p.DefaultIncrement) {
		t.Fatalf("increment counter did not grow: %d", grown)
	}
	if afterRelease != sim.Cycle(p.DefaultIncrement) {
		t.Fatalf("release did not reset increment counter: %d", afterRelease)
	}
}

// TestDeNovoOwnedWriteIsSilent: repeated writes to a word this core has
// registered generate no further traffic (registration persists across
// synchronization boundaries).
func TestDeNovoOwnedWriteIsSilent(t *testing.T) {
	space := alloc.New()
	w := space.AllocPadded(space.Region("sync"))
	m := New(small16(), DeNovoSync0, space)
	var after1, after100 uint64
	_, err := m.Run("ownedwrite", func(th *cpu.Thread) {
		if th.ID != 0 {
			return
		}
		th.SyncStore(w, 1)
		th.Fence()
		th.Flush() // sample the network after the registering store
		after1 = m.Net.TotalTraffic()
		for i := 0; i < 100; i++ {
			th.SyncStore(w, uint64(i))
		}
		th.Flush()
		after100 = m.Net.TotalTraffic()
	})
	if err != nil {
		t.Fatal(err)
	}
	if after100 != after1 {
		t.Fatalf("writes to a registered word generated traffic: %d -> %d", after1, after100)
	}
}

// TestMESIInvalidationFanout: invalidating N sharers costs ~N
// invalidation+ack message pairs — the linearization cost that grows with
// core count (§6.1.1). DeNovo has no invalidations at all.
func TestMESIInvalidationFanout(t *testing.T) {
	sharers := func(n int) uint64 {
		space := alloc.New()
		flag := space.AllocPadded(space.Region("sync"))
		gate := space.AllocPadded(space.Region("sync2"))
		m := New(small16(), MESI, space)
		_, err := m.Run("fanout", func(th *cpu.Thread) {
			if th.ID < n {
				_ = th.SyncLoad(flag) // become a sharer
				th.FetchAdd(gate, 1)
				th.SpinSyncLoadUntil(gate, func(v uint64) bool { return v >= uint64(n)+1 })
			} else if th.ID == 15 {
				th.SpinSyncLoadUntil(gate, func(v uint64) bool { return v == uint64(n) })
				th.SyncStore(flag, 1) // invalidate all n sharers
				th.FetchAdd(gate, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Net.Messages()[proto.ClassInv]
	}
	few := sharers(2)
	many := sharers(8)
	if many <= few {
		t.Fatalf("invalidation messages did not grow with sharers: 2->%d, 8->%d", few, many)
	}

	// DeNovo: zero invalidation-class messages ever.
	space := alloc.New()
	flag := space.AllocPadded(space.Region("sync"))
	m := New(small16(), DeNovoSync, space)
	_, err := m.Run("noinv", func(th *cpu.Thread) {
		_ = th.SyncLoad(flag)
		th.FetchAdd(flag, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if inv := m.Net.Messages()[proto.ClassInv]; inv != 0 {
		t.Fatalf("DeNovo produced %d invalidation messages", inv)
	}
}

// TestDeNovoWordGranularityResponse: a DeNovo sync response carries one
// word (6 flits), not a full line (36 flits) — the traffic saving of §7.1.1
// ("per-word coherence granularity which allows sending only valid data").
func TestDeNovoWordGranularityResponse(t *testing.T) {
	space := alloc.New()
	w := space.AllocPadded(space.Region("sync"))
	m := New(small16(), DeNovoSync0, space)
	_, err := m.Run("wordgrain", func(th *cpu.Thread) {
		switch th.ID {
		case 0:
			th.SyncStore(w, 3) // register at core 0
			th.Compute(1000)
		case 1:
			th.Compute(500)
			_ = th.SyncLoad(w) // steal: fwd + single-word ack
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	synch := m.Net.Traffic()[proto.ClassSynch]
	// All SYNCH messages here are control (4 flits) or single-word (6
	// flits); with line-sized responses this would be several times higher.
	msgs := m.Net.Messages()[proto.ClassSynch]
	if msgs == 0 {
		t.Fatal("no SYNCH messages")
	}
	if synch > msgs*uint64(proto.WordDataFlits)*14 {
		t.Fatalf("SYNCH traffic %d too high for %d word-granularity messages", synch, msgs)
	}
}

// TestStoreBufferingLitmus: Dekker-style litmus — with sync accesses, both
// threads cannot read 0 (sequential consistency for synchronization, §4).
func TestStoreBufferingLitmus(t *testing.T) {
	for _, prot := range allProtocols {
		for trial := 0; trial < 5; trial++ {
			space := alloc.New()
			x := space.AllocPadded(space.Region("sync"))
			y := space.AllocPadded(space.Region("sync"))
			m := New(small16(), prot, space)
			var r0, r1 uint64
			var delays = []uint64{0, 10, 37, 100, 1}
			d := delays[trial]
			_, err := m.Run("sb", func(th *cpu.Thread) {
				switch th.ID {
				case 0:
					th.Compute(sim.Cycle(d))
					th.SyncStore(x, 1)
					r0 = th.SyncLoad(y)
				case 1:
					th.SyncStore(y, 1)
					r1 = th.SyncLoad(x)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if r0 == 0 && r1 == 0 {
				t.Fatalf("%v trial %d: SC violation — both read 0", prot, trial)
			}
		}
	}
}
