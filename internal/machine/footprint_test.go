package machine

import (
	"runtime"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/race"
)

// TestMachineBuildFootprint is the memory budget of a machine build:
// what New allocates for Table 1's 16- and 64-core machines on every
// protocol. An L1 allocates its tag and line-pointer arrays when built
// and a line only on a way's first fill, so a 64-core build stays under
// 1 MiB; allocating every L1 line up front took 6.6 MB (1.65 MB at 16
// cores).
func TestMachineBuildFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, c := range []struct {
		p      Params
		budget uint64
	}{
		{Params16(), 256 << 10},
		{Params64(), 1 << 20},
	} {
		for _, prot := range allProtocols {
			space := alloc.New()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m := New(c.p, prot, space)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(m)
			got := after.TotalAlloc - before.TotalAlloc
			if got > c.budget {
				t.Errorf("a %d-core %v build allocated %d bytes, want at most %d", c.p.Cores, prot, got, c.budget)
				continue
			}
			t.Logf("%d-core %v build: %d bytes", c.p.Cores, prot, got)
		}
	}
}
