package stats

import (
	"fmt"
	"strings"
)

// Fingerprint renders every simulated quantity of a run in a canonical
// text form, down to per-core cycle breakdowns. Two runs are "bitwise
// identical" iff their fingerprints match; host-dependent diagnostics
// (WallTime, EventsPerSec) are excluded. The machine determinism suite
// and the harness tests compare runs through this one renderer.
func Fingerprint(rs *RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s cores=%d exec=%d events=%d l1=%d/%d traffic=%d",
		rs.Workload, rs.Protocol, rs.Cores, rs.ExecTime, rs.Events, rs.L1Hits, rs.L1Misses, rs.TotalTraffic)
	for c := TimeComponent(0); c < NumTimeComponents; c++ {
		fmt.Fprintf(&b, " t%d=%.3f", c, rs.Time[c])
	}
	for cl, v := range rs.Traffic {
		fmt.Fprintf(&b, " n%d=%d", cl, v)
	}
	for i, ct := range rs.PerCore {
		fmt.Fprintf(&b, " c%d=%v/%d", i, ct.Cycles, ct.Finish)
	}
	return b.String()
}
