// Deadlock/livelock watchdog: when Params.WatchdogCycles > 0, the machine
// monitors global retirement progress and converts a hang — no core
// retiring any operation for a full cycle budget — into a structured
// diagnostic snapshot instead of spinning to the event limit.
package machine

import (
	"encoding/json"
	"fmt"

	"denovosync/internal/denovo"
	"denovosync/internal/mesi"
	"denovosync/internal/proto"
)

// WatchdogCore is one core's state in a diagnostic snapshot.
type WatchdogCore struct {
	Core     int    `json:"core"`
	Finished bool   `json:"finished"`
	Phase    string `json:"phase"`
	Retired  uint64 `json:"retired"`

	// Outstanding lists the MSHR contents: lines (MESI) or coherence
	// units (DeNovo) with an in-flight transaction.
	Outstanding []string `json:"outstanding,omitempty"`

	// Parked lists, per outstanding word, the cores whose forwarded
	// registrations wait in this MSHR (DeNovo's distributed registration
	// queue) as "word<-[cores]".
	Parked []string `json:"parked,omitempty"`

	PendingStores int `json:"pending_stores,omitempty"`

	// DeNovoSync hardware-backoff state (§4.2).
	BackoffCounter   uint64 `json:"backoff_counter,omitempty"`
	BackoffIncrement uint64 `json:"backoff_increment,omitempty"`
	BackoffStall     uint64 `json:"backoff_stall_cycles,omitempty"`
}

// WatchdogSnapshot is the structured diagnostic emitted when the watchdog
// fires: enough system state to see who is stuck on what.
type WatchdogSnapshot struct {
	Protocol      string `json:"protocol"`
	Cycle         uint64 `json:"cycle"`
	Events        uint64 `json:"events"`
	PendingEvents int    `json:"pending_events"`
	Finished      int    `json:"finished_threads"`
	Cores         int    `json:"cores"`

	// InFlight counts sent-but-undelivered NoC messages per class.
	InFlight map[string]int64 `json:"in_flight_messages,omitempty"`

	PerCore []WatchdogCore `json:"per_core"`

	// BusyDirLines: MESI directory lines blocked mid-transaction.
	BusyDirLines []string `json:"busy_dir_lines,omitempty"`
	// FetchingRegLines: DeNovo registry lines mid cold-fetch.
	FetchingRegLines []string `json:"fetching_reg_lines,omitempty"`
}

// WatchdogError reports that no core retired an operation for a full
// watchdog budget. It wraps the diagnostic snapshot; use errors.As to
// recover it programmatically.
type WatchdogError struct {
	Budget   uint64 // configured cycle budget
	Snapshot WatchdogSnapshot
}

func (e *WatchdogError) Error() string {
	b, err := json.MarshalIndent(&e.Snapshot, "", "  ")
	if err != nil {
		b = []byte(fmt.Sprintf("unrenderable snapshot: %v", err))
	}
	return fmt.Sprintf("machine: watchdog: no core retired an operation for %d cycles (cycle %d, %d/%d threads finished); diagnostic snapshot:\n%s",
		e.Budget, e.Snapshot.Cycle, e.Snapshot.Finished, e.Snapshot.Cores, b)
}

// armWatchdog schedules the recurring progress check. It fires when total
// retirements did not advance over a full budget; it stops rescheduling
// (letting the event queue drain) once every thread finished.
func (m *Machine) armWatchdog() {
	budget := m.Params.WatchdogCycles
	last := ^uint64(0) // first tick always observes progress (startup)
	var tick func()
	tick = func() {
		if m.finishedCount() == m.Params.Cores {
			return
		}
		cur := m.totalRetired()
		if cur == last {
			m.watchdogErr = &WatchdogError{Budget: uint64(budget), Snapshot: m.snapshot()}
			m.Eng.Stop()
			return
		}
		last = cur
		m.Eng.Schedule(budget, tick)
	}
	m.Eng.Schedule(budget, tick)
}

func (m *Machine) totalRetired() uint64 {
	var t uint64
	for _, c := range m.Cores {
		t += c.Retired()
	}
	return t
}

// snapshot captures the diagnostic state at the moment the watchdog fires.
func (m *Machine) snapshot() WatchdogSnapshot {
	s := WatchdogSnapshot{
		Protocol:      m.Protocol.String(),
		Cycle:         uint64(m.simNow()),
		Events:        m.totalEvents(),
		PendingEvents: m.pendingEvents(),
		Finished:      m.finishedCount(),
		Cores:         m.Params.Cores,
	}
	inflight := m.Net.InFlight()
	for cl := proto.MsgClass(0); cl < proto.NumMsgClasses; cl++ {
		if inflight[cl] != 0 {
			if s.InFlight == nil {
				s.InFlight = map[string]int64{}
			}
			s.InFlight[cl.String()] = inflight[cl]
		}
	}
	for i, core := range m.Cores {
		wc := WatchdogCore{
			Core:     i,
			Finished: core.Finished(),
			Phase:    core.Phase().String(),
			Retired:  core.Retired(),
		}
		switch l1 := m.L1s[i].(type) {
		case *mesi.L1:
			for _, line := range l1.OutstandingLines() {
				wc.Outstanding = append(wc.Outstanding, fmt.Sprintf("%v", line))
			}
			wc.PendingStores = l1.PendingStoreCount()
		case *denovo.L1:
			for _, word := range l1.OutstandingWords() {
				wc.Outstanding = append(wc.Outstanding, fmt.Sprintf("%v", word))
				if parked := l1.ParkedRequesters(word); len(parked) > 0 {
					wc.Parked = append(wc.Parked, fmt.Sprintf("%v<-%v", word, parked))
				}
			}
			wc.PendingStores = l1.PendingStoreCount()
			wc.BackoffCounter = uint64(l1.BackoffCounter())
			wc.BackoffIncrement = uint64(l1.IncrementCounter())
			wc.BackoffStall = uint64(l1.BackoffStallCycles())
		}
		s.PerCore = append(s.PerCore, wc)
	}
	if m.MESIDir != nil {
		for _, line := range m.MESIDir.BusyLines() {
			s.BusyDirLines = append(s.BusyDirLines, fmt.Sprintf("%v", line))
		}
	}
	if m.Registry != nil {
		for _, line := range m.Registry.FetchingLines() {
			s.FetchingRegLines = append(s.FetchingRegLines, fmt.Sprintf("%v", line))
		}
	}
	return s
}
