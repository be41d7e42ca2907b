package cpu

import (
	"testing"

	"denovosync/internal/proto"
	"denovosync/internal/race"
	"denovosync/internal/sim"
)

// wordL1 is a fakeL1 that applies every access to one word and completes
// it a cycle later through the core's bound continuation, so it
// allocates nothing of its own.
type wordL1 struct {
	*fakeL1
	word uint64
}

func (w *wordL1) Access(req proto.Request) {
	old := w.word
	switch req.Kind {
	case proto.SyncRMW:
		if nv, st := proto.ApplyRMW(&req, old); st {
			w.word = nv
		}
	case proto.DataStore, proto.SyncStore:
		w.word = req.Value
	}
	w.eng.ScheduleCall(1, req.Done, old)
}

// TestRMWAllocatesNothing: once warm, a thread's CAS, FetchAdd and
// Exchange allocate nothing: the operation and its operands travel to the
// L1 as values in the request.
func TestRMWAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	eng := sim.NewEngine()
	l1 := &wordL1{fakeL1: newFakeL1(eng, 1)}
	core := NewCore(eng, 0, l1, nil)
	rounds, swaps := 0, 0
	core.Spawn(nil, sim.NewRNG(1), func(th *Thread) {
		for {
			v := th.FetchAdd(64, 2)
			if th.CAS(64, v+2, v+5) {
				swaps++
			}
			th.Exchange(64, v)
			rounds++
		}
	})
	defer core.Stop()
	round := func() {
		for want := rounds + 1; rounds < want; {
			if eng.Run(1) == 0 {
				t.Fatal("engine drained before the round completed")
			}
		}
	}
	round() // warm the engine, the core's batch and the thread
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a CAS + FetchAdd + Exchange round allocated %.1f times, want 0", n)
	}
	if swaps != rounds {
		t.Fatalf("%d of %d CASes succeeded, want all", swaps, rounds)
	}
}
