package machine

import (
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
)

// TestWatchdogSeesBatchedProgress: a thread whose operations return no
// value hands them to its core in long batches, tens of thousands of
// cycles each. The watchdog must still see it make progress, because
// retirement advances per completed operation, not per handshake.
func TestWatchdogSeesBatchedProgress(t *testing.T) {
	for _, prot := range allProtocols {
		p := small16()
		p.WatchdogCycles = 10_000
		space := alloc.New()
		w := space.AllocPadded(space.Region("data"))
		m := New(p, prot, space)
		_, err := m.Run("batched-progress", func(th *cpu.Thread) {
			if th.ID != 0 {
				return
			}
			for i := 0; i < 100; i++ {
				th.Store(w, uint64(i))
				th.Compute(1000)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		if got := m.Cores[0].Retired(); got != 100 {
			t.Fatalf("%v: core 0 retired %d operations, want its 100 stores", prot, got)
		}
		if got := m.Store.Read(w); got != 99 {
			t.Fatalf("%v: final value %d, want 99", prot, got)
		}
	}
}
