// Parallel execution: the machine's bridge to the conservative window
// scheduler in internal/pdes. The wiring (per-LP engines, the mailbox
// exchange, per-node engine resolution in every controller) happens in
// New; this file only drives the run and replicates the watchdog at
// window barriers.
package machine

import (
	"denovosync/internal/pdes"
)

// runParallel executes the partitioned machine to completion. The window
// width (lookahead) is the one-hop network latency: the minimum time any
// cross-LP message spends in flight, since nodes of different LPs never
// share a router.
func (m *Machine) runParallel(eventLimit uint64) error {
	sched := &pdes.Scheduler{
		Engines:    m.engines,
		Exchange:   m.exch,
		Lookahead:  m.Net.Latency(1),
		EventLimit: eventLimit,
	}
	if wd := m.Params.WatchdogCycles; wd > 0 {
		// The serial watchdog is a recurring engine event (armWatchdog);
		// here the coordinator runs the same progress check at each
		// tick-aligned barrier, where the machine state is exactly what
		// the serial tick event would observe.
		last := ^uint64(0) // first tick always observes progress (startup)
		sched.TickPeriod = wd
		sched.OnTick = func() bool {
			if m.finishedCount() == m.Params.Cores {
				return false
			}
			cur := m.totalRetired()
			if cur == last {
				m.watchdogErr = &WatchdogError{Budget: uint64(wd), Snapshot: m.snapshot()}
				return true
			}
			last = cur
			return false
		}
	}
	m.sched = sched
	return sched.Run()
}
