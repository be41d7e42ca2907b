package sim

import "testing"

// maxCycle is the last representable cycle.
const maxCycle = ^Cycle(0)

// TestStopMidRingDrain: Stop called from a zero-delay event must end the
// Run after that event, leaving the rest of the cycle's events (and the
// clock) intact; a later Run resumes the drain in the original FIFO
// order.
func TestStopMidRingDrain(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() {
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(0, func() {
				got = append(got, i)
				if i == 1 {
					e.Stop()
				}
			})
		}
	})
	n := e.Run(0)
	if n != 3 { // the seeding event plus zero-delay events 0 and 1
		t.Fatalf("first Run dispatched %d events, want 3", n)
	}
	if e.Now() != 3 {
		t.Fatalf("clock moved to %d during the stopped drain, want 3", e.Now())
	}
	if p := e.Pending(); p != 3 {
		t.Fatalf("pending = %d after mid-cycle stop, want 3", p)
	}
	e.Run(0)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed drain reordered: got %v, want %v", got, want)
		}
	}
}

// TestOrderingAtCycleOverflowBoundary: events at the last representable
// cycle still dispatch by schedule time — a far (heap) event before the
// wheel's — and the clock saturates at maxCycle without wrapping.
func TestOrderingAtCycleOverflowBoundary(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(maxCycle-1, func() {
		got = append(got, 1)
		e.Schedule(1, func() { // wheel event at maxCycle, schedAt maxCycle-1
			got = append(got, 2)
			e.Schedule(0, func() { got = append(got, 4) }) // zero delay at maxCycle
		})
	})
	e.At(maxCycle, func() { got = append(got, 3) }) // heap event, schedAt 0: first at maxCycle
	e.Run(0)
	// At maxCycle: the At-scheduled event (schedAt 0) precedes the
	// Schedule(1) event (schedAt maxCycle-1); both precede the zero-delay
	// event.
	want := []int{1, 3, 2, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
	if e.Now() != maxCycle {
		t.Fatalf("clock = %d, want maxCycle", e.Now())
	}
}

// TestArrivalOrderingAtOverflowBoundary: band-1 arrival keys keep their
// (src, ctr) order against band-0 events at the maximum cycle.
func TestArrivalOrderingAtOverflowBoundary(t *testing.T) {
	e := NewEngine()
	var got []int
	// Two arrivals sent at maxCycle-1 from different sources, and one
	// band-0 event scheduled earlier for the same cycle: band 0 first,
	// then arrivals by (src, ctr).
	e.At(maxCycle-1, func() {
		e.ScheduleArrivalAt(maxCycle, 7, 5, 0, func(uint64) { got = append(got, 3) }, 0)
		e.ScheduleArrivalAt(maxCycle, 2, 9, 0, func(uint64) { got = append(got, 2) }, 0)
	})
	e.At(maxCycle, func() { got = append(got, 1) }) // schedAt 0 < maxCycle-1
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestArenaFreeListReuse: dispatching a wave of events must return every
// arena slot to the free list; scheduling the same-sized wave again — even
// a bulk of same-cycle cancellation-style callbacks dropped by Stop and
// then drained — reuses the slots without growing the arena.
func TestArenaFreeListReuse(t *testing.T) {
	e := NewEngine()
	const waves, per = 8, 100
	nop := func() {}
	call := func(uint64) {}
	for w := 0; w < waves; w++ {
		for i := 0; i < per; i++ {
			if i%2 == 0 {
				e.Schedule(Cycle(i%7), nop)
			} else {
				e.ScheduleCall(Cycle(i%7), call, uint64(i))
			}
		}
		e.Run(0)
		if w == 0 {
			continue
		}
		if got := len(e.arena); got > per {
			t.Fatalf("arena grew to %d slots after wave %d, want <= %d (free-list reuse)", got, w, per)
		}
	}
	// Free-list integrity: every slot is on the list exactly once and
	// carries no retained closure of either payload form.
	seen := make(map[int32]bool)
	n := 0
	for i := e.free; i != nilIdx; i = e.arena[i].next {
		if seen[i] {
			t.Fatalf("arena slot %d linked twice in the free list", i)
		}
		seen[i] = true
		if e.arena[i].fn != nil {
			t.Fatalf("released slot %d retains its closure", i)
		}
		if e.arena[i].call != nil {
			t.Fatalf("released slot %d retains its call continuation", i)
		}
		n++
	}
	if n != len(e.arena) {
		t.Fatalf("free list holds %d of %d arena slots after full drain", n, len(e.arena))
	}
}

// TestArenaReuseAfterStopDrain: a bulk of pending events abandoned by
// Stop is recycled once a later Run drains them — the arena never leaks
// slots across a stop/resume cycle.
func TestArenaReuseAfterStopDrain(t *testing.T) {
	e := NewEngine()
	const bulk = 64
	nop := func() {}
	e.Schedule(1, func() { e.Stop() })
	for i := 0; i < bulk; i++ {
		e.Schedule(Cycle(2+i), nop)
	}
	e.Run(0)
	if p := e.Pending(); p != bulk {
		t.Fatalf("pending = %d after stop, want %d", p, bulk)
	}
	e.Run(0) // drain the abandoned bulk
	if p := e.Pending(); p != 0 {
		t.Fatalf("pending = %d after resume, want 0", p)
	}
	grown := len(e.arena)
	for i := 0; i < bulk; i++ {
		e.Schedule(Cycle(1+i), nop)
	}
	if len(e.arena) != grown {
		t.Fatalf("arena grew from %d to %d on reschedule, want pooled reuse", grown, len(e.arena))
	}
	e.Run(0)
}
