package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same cycle: FIFO
	e.Schedule(20, func() { got = append(got, 4) })
	e.Run(0)
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestZeroDelayRunsThisCycle(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var rec func(depth int)
	rec = func(depth int) {
		count++
		if depth < 100 {
			e.Schedule(1, func() { rec(depth + 1) })
		}
	}
	e.Schedule(0, func() { rec(0) })
	e.Run(0)
	if count != 101 {
		t.Fatalf("count = %d, want 101", count)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(i), func() {
			ran++
			if ran == 3 {
				e.Stop()
			}
		})
	}
	n := e.Run(0)
	if n != 3 || ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(1, func() {})
	}
	if n := e.Run(4); n != 4 {
		t.Fatalf("Run(4) dispatched %d", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

func TestAtPanicsInPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestSchedulePanicsOnNil(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	e.Schedule(0, nil)
}

// Property: dispatch order is sorted by time with FIFO tie-break, for
// arbitrary delay sequences.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		type stamp struct {
			at  Cycle
			seq int
		}
		var got []stamp
		for i, d := range delays {
			i, d := i, d
			e.Schedule(Cycle(d), func() { got = append(got, stamp{e.Now(), i}) })
		}
		e.Run(0)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGRangeBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Range(128, 2048)
		if v < 128 || v >= 2048 {
			t.Fatalf("Range out of bounds: %d", v)
		}
	}
	c := r.Cycles(1400, 1800)
	if c < 1400 || c >= 1800 {
		t.Fatalf("Cycles out of bounds: %d", c)
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNG(9)
	c1, c2 := r.Fork(), r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams suspiciously correlated: %d/100 equal", same)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}
