//go:build go1.23

package cpu

import (
	"iter"
	"runtime/debug"

	"denovosync/internal/sim"
)

// Spawn makes body the core's thread and schedules the thread's first
// service at cycle 0. The thread runs as a coroutine the core resumes
// (see serviceThread), so it first runs inside that cycle-0 event: native
// code ahead of each thread's first yield, including host-level access to
// shared simulation state such as the allocator, runs one thread at a
// time, in spawn order. When body returns, its queued operations play
// out and the core records its finish time. regions may be nil if the
// workload never uses regions.
//
// A panic in body is recovered on the thread's own stack and re-panicked
// as a *ThreadPanic, which resurfaces on the engine goroutine from the
// resume call.
func (c *Core) Spawn(regions RegionMapper, rng *sim.RNG, body func(*Thread)) {
	c.regions = regions
	t := &Thread{ID: int(c.id), RNG: rng, core: c}
	c.resume, c.stop = iter.Pull(func(yield func([]step) bool) {
		defer func() {
			switch p := recover().(type) {
			case nil, stopUnwind:
			default:
				panic(&ThreadPanic{Core: c.id, Value: p, Stack: debug.Stack()})
			}
		}()
		t.yield = yield
		body(t)
		t.Flush()
	})
	c.eng.Schedule(0, c.serviceThread)
}
