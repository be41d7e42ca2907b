package sim

import "testing"

// BenchmarkEngineSameCycle measures the zero-delay path: each event
// schedules its successor later in the same cycle, so dispatch stays on
// the current cycle's wheel list.
func BenchmarkEngineSameCycle(b *testing.B) {
	e := NewEngine()
	n := uint64(b.N)
	var fn func()
	fn = func() {
		if n--; n > 0 {
			e.Schedule(0, fn)
		}
	}
	e.Schedule(0, fn)
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEngineFutureChain measures the wheel with one event resident:
// each event schedules its successor one cycle ahead.
func BenchmarkEngineFutureChain(b *testing.B) {
	e := NewEngine()
	n := uint64(b.N)
	var fn func()
	fn = func() {
		if n--; n > 0 {
			e.Schedule(1, fn)
		}
	}
	e.Schedule(1, fn)
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEngineHeap256 measures the queue with ~256 events resident —
// the simulator's steady state, where every core and cache controller
// keeps a few events in flight at staggered future times. Its delays of
// 1–61 cycles all fall inside the timing wheel, so despite its name it
// never touches the heap; BenchmarkEngineFar measures that path.
func BenchmarkEngineHeap256(b *testing.B) {
	e := NewEngine()
	n := uint64(b.N)
	var fn func()
	fn = func() {
		if n > 0 {
			n--
			// Varying delays keep the heap exercised rather than FIFO-like.
			e.Schedule(1+Cycle(n%61), fn)
		}
	}
	for i := 0; i < 256; i++ {
		e.Schedule(1+Cycle(i%61), fn)
	}
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEngineFar measures the heap behind the wheel with ~256 events
// resident: every delay is 64 cycles or more, so each event is pushed on
// and popped off the heap.
func BenchmarkEngineFar(b *testing.B) {
	e := NewEngine()
	n := uint64(b.N)
	var fn func()
	fn = func() {
		if n > 0 {
			n--
			e.Schedule(wheelSize+Cycle(n%61), fn)
		}
	}
	for i := 0; i < 256; i++ {
		e.Schedule(wheelSize+Cycle(i%61), fn)
	}
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEngineMixed models the observed production mix: roughly
// two-thirds zero-delay completion events, one-third future timing
// events.
func BenchmarkEngineMixed(b *testing.B) {
	e := NewEngine()
	n := uint64(b.N)
	var fn func()
	fn = func() {
		if n == 0 {
			return
		}
		n--
		if n%3 == 0 {
			e.Schedule(1+Cycle(n%17), fn)
		} else {
			e.Schedule(0, fn)
		}
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Cycle(i%7), fn)
	}
	b.ResetTimer()
	e.Run(0)
}
