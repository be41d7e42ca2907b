package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// panicOnCore3 is a 16-core workload whose core-3 thread panics after
// its first load; the other threads finish normally.
func panicOnCore3(w proto.Addr) func(i int) Workload {
	return func(i int) Workload {
		return func(th *cpu.Thread) {
			th.FetchAdd(w, 1)
			if th.ID == 3 {
				panic("injected thread bug")
			}
			th.Compute(100)
		}
	}
}

// TestThreadPanicFailsRun: a panic in one thread body becomes the run's
// error, naming the core and carrying the thread's own stack, instead of
// ending the process.
func TestThreadPanicFailsRun(t *testing.T) {
	space := alloc.New()
	w := space.AllocPadded(space.Region("data"))
	m := New(small16(), MESI, space)
	rs, err := m.RunThreads("panic", panicOnCore3(w))
	if err == nil {
		t.Fatalf("run with a panicking thread succeeded: %+v", rs)
	}
	var tp *cpu.ThreadPanic
	if !errors.As(err, &tp) || tp.Core != 3 {
		t.Fatalf("error is not core 3's *cpu.ThreadPanic: %v", err)
	}
	for _, want := range []string{"injected thread bug", "core 3", "panicOnCore3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}

// TestAbortedRunsReleaseThreads: a run that ends with unfinished threads
// stops them, so no thread outlives its run, and a stopped thread runs
// none of its remaining workload code: its pending operation unwinds the
// body. Every thread spins on its own line, which nobody writes; in the
// watchdog case core 0 first computes long enough for the watchdog to
// see no core retire anything.
func TestAbortedRunsReleaseThreads(t *testing.T) {
	cases := []struct {
		name     string
		runs     int
		watchdog sim.Cycle
		busy     sim.Cycle
		want     string
	}{
		{"deadlock", 10, 0, 0, "deadlock"},
		{"watchdog", 1, 10_000, 1_000_000, "watchdog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for run := 0; run < tc.runs; run++ {
				p := small16()
				p.WatchdogCycles = tc.watchdog
				space := alloc.New()
				region := space.Region("lines")
				var lines []proto.Addr
				for i := 0; i < p.Cores; i++ {
					lines = append(lines, space.AllocPadded(region))
				}
				ran := make([]bool, p.Cores)
				unwound := make([]bool, p.Cores)
				m := New(p, MESI, space)
				_, err := m.RunThreads("stuck", func(i int) Workload {
					return func(th *cpu.Thread) {
						defer func() { unwound[i] = true }()
						if i == 0 {
							th.Compute(tc.busy)
						}
						th.SpinSyncLoadUntil(lines[i], func(v uint64) bool { return v != 0 })
						ran[i] = true
					}
				})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run %d: err = %v, want a %s error", run, err, tc.want)
				}
				for i := range ran {
					if ran[i] || !unwound[i] {
						t.Fatalf("run %d, thread %d: ran past its spin = %v, unwound = %v; want false, true",
							run, i, ran[i], unwound[i])
					}
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d aborted runs left %d goroutines behind (%d -> %d)", tc.runs, after-before, before, after)
			}
		})
	}
}

// TestThreadsStartInCoreOrder: native code ahead of each thread's first
// operation runs at cycle 0, one thread at a time, in core order.
func TestThreadsStartInCoreOrder(t *testing.T) {
	space := alloc.New()
	w := space.AllocPadded(space.Region("data"))
	m := New(small16(), DeNovoSync, space)
	var order []int
	var at []sim.Cycle
	inside, overlap := false, false
	_, err := m.Run("start-order", func(th *cpu.Thread) {
		overlap = overlap || inside
		inside = true
		runtime.Gosched() // lets another thread in, if any could run now
		order = append(order, th.ID)
		at = append(at, th.Now())
		inside = false
		th.Load(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlap {
		t.Fatal("two threads ran native code at once")
	}
	if len(order) != 16 {
		t.Fatalf("%d threads started, want 16", len(order))
	}
	for i := range order {
		if order[i] != i || at[i] != 0 {
			t.Fatalf("start order %v at cycles %v; want threads 0..15, all at cycle 0", order, at)
		}
	}
}
