package sim

import (
	"testing"

	"denovosync/internal/race"
)

// TestScheduleCallInterleavesInSeqOrder: typed and closure events share
// one sequence, so a mix of the two dispatches in schedule order both on
// the same-cycle ring and on the heap.
func TestScheduleCallInterleavesInSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []uint64
	record := func(v uint64) { got = append(got, v) }
	closure := func(v uint64) func() { return func() { record(v) } }

	// Heap: six events for cycle 5, alternating the two forms.
	for v := uint64(0); v < 6; v++ {
		if v%2 == 0 {
			e.Schedule(5, closure(v))
		} else {
			e.ScheduleCall(5, record, v)
		}
	}
	// Ring: from inside a cycle-9 event, six zero-delay events.
	e.Schedule(9, func() {
		for v := uint64(10); v < 16; v++ {
			if v%2 == 1 {
				e.Schedule(0, closure(v))
			} else {
				e.ScheduleCall(0, record, v)
			}
		}
	})
	e.Run(0)
	want := []uint64{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

// TestScheduleCallTraceMatchesSchedule: a typed schedule reports the same
// (now, delay, seq) triple as the closure it replaces and consumes exactly
// one sequence number.
func TestScheduleCallTraceMatchesSchedule(t *testing.T) {
	type triple struct {
		now, delay Cycle
		seq        uint64
	}
	trace := func(typed bool) []triple {
		var out []triple
		TraceSchedule = func(now, delay Cycle, seq uint64) { out = append(out, triple{now, delay, seq}) }
		defer func() { TraceSchedule = nil }()
		e := NewEngine()
		var step func(uint64)
		step = func(v uint64) {
			if v == 0 {
				return
			}
			delay := Cycle(v % 3)
			if typed {
				e.ScheduleCall(delay, step, v-1)
			} else {
				e.Schedule(delay, func() { step(v - 1) })
			}
			e.ScheduleTagged(delay+1, 1, func() {})
		}
		e.Schedule(2, func() { step(8) })
		e.Run(0)
		return out
	}
	closures, typed := trace(false), trace(true)
	if len(closures) != len(typed) || len(typed) == 0 {
		t.Fatalf("trace lengths differ: %d closure vs %d typed", len(closures), len(typed))
	}
	for i := range closures {
		if closures[i] != typed[i] {
			t.Fatalf("trace entry %d: closure %+v, typed %+v", i, closures[i], typed[i])
		}
		if typed[i].seq != uint64(i+1) {
			t.Fatalf("trace entry %d consumed seq %d, want %d", i, typed[i].seq, i+1)
		}
	}
}

// TestDispatchedCountsPerTag: tagged local events and tagged arrivals are
// counted under their tag when they dispatch, and only then; untagged
// events count under tag 0.
func TestDispatchedCountsPerTag(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	e.ScheduleTagged(1, 3, nop)
	e.ScheduleTagged(4, 3, nop)
	e.ScheduleArrivalAt(2, 0, 1, 0, 5, nop)
	e.Schedule(3, nop)
	e.ScheduleCall(3, func(uint64) {}, 7)
	if e.Dispatched(3) != 0 || e.Dispatched(5) != 0 {
		t.Fatal("events counted before dispatch")
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("Run(4) dispatched %d events, want 4", n)
	}
	if got := e.Dispatched(3); got != 1 {
		t.Fatalf("tag 3 dispatched %d in the first four events, want 1", got)
	}
	if got := e.Dispatched(5); got != 1 {
		t.Fatalf("tag 5 dispatched %d, want 1", got)
	}
	if got := e.Dispatched(0); got != 2 {
		t.Fatalf("untagged dispatched %d, want 2", got)
	}
	e.Run(0)
	if got := e.Dispatched(3); got != 2 {
		t.Fatalf("tag 3 dispatched %d after drain, want 2", got)
	}
	if e.Executed != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed)
	}
}

// TestScheduleTagRange: a tag outside the counted range is rejected.
func TestScheduleTagRange(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleTagged with tag NumTags did not panic")
		}
	}()
	e.ScheduleTagged(0, NumTags, func() {})
}

// TestScheduleCallAllocatesNothing: scheduling a bound continuation and
// dispatching it allocates nothing once the arena is warm.
func TestScheduleCallAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	e := NewEngine()
	var sum uint64
	add := func(v uint64) { sum += v }
	run := func() {
		e.ScheduleCall(0, add, 1)
		e.ScheduleCall(3, add, 2)
		e.Run(0)
	}
	run() // warm the arena, ring and heap
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("ScheduleCall + dispatch allocated %.1f times per run, want 0", n)
	}
	if sum == 0 {
		t.Fatal("continuation never ran")
	}
}
