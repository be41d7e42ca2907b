package kernels_test

import (
	"runtime"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
	"denovosync/internal/race"
)

// TestRetainedHeap is the memory budget of the worst 16-core cell of the
// benchmark: the Herlihy stack on MESI at paper scale copies its whole
// object on every operation into lane addresses that are never reused,
// so the run writes a few lines on each of many pages. What the finished
// machine still holds (memory image, region tables, directory) must stay
// under 12 MB of live heap; with whole 8 KiB image pages and a region
// byte per lane word it held 17.2 MB.
func TestRetainedHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	const budget = 12_000_000
	k, ok := kernels.ByID("nb-herlihy-stack")
	if !ok {
		t.Fatal("missing kernel nb-herlihy-stack")
	}
	p := machine.Params16()
	p.WatchdogCycles = 100_000_000
	m := machine.New(p, machine.MESI, alloc.New())
	if _, err := kernels.Run(k, m, kernels.Config{Cores: 16, EqChecks: -1}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(m)
	if ms.HeapAlloc > budget {
		t.Fatalf("a finished 16-core nb-herlihy-stack run on MESI keeps %.1f MB of live heap, want at most %.1f MB",
			float64(ms.HeapAlloc)/1e6, float64(budget)/1e6)
	}
	t.Logf("live heap after the run: %.1f MB", float64(ms.HeapAlloc)/1e6)
}
