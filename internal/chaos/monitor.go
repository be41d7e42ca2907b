package chaos

import (
	"fmt"
	"sort"

	"denovosync/internal/cache"
	"denovosync/internal/denovo"
	"denovosync/internal/machine"
	"denovosync/internal/mesi"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// Violation is one observed invariant breach.
type Violation struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"` // "swmr" | "value" | "dir-mismatch" | "reg-mismatch" | "parked-cycle" | "stuck-mshr" | "quiescence" | "backoff"
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d [%s] %s", v.Cycle, v.Kind, v.Detail)
}

// MonitorConfig tunes the live invariant monitor.
type MonitorConfig struct {
	// SampleEvery is the checking cadence in cycles (default 10_000).
	SampleEvery sim.Cycle
	// StuckCycles flags an MSHR transaction outstanding longer than this
	// as leaked/stuck (default 5_000_000; 0 disables). Keep it above the
	// watchdog budget: a global stall should be the watchdog's diagnosis.
	StuckCycles sim.Cycle
	// MaxViolations caps recorded violations (default 64); further ones
	// are counted but dropped.
	MaxViolations int
}

func (c MonitorConfig) sampleEvery() sim.Cycle {
	if c.SampleEvery > 0 {
		return c.SampleEvery
	}
	return 10_000
}

func (c MonitorConfig) stuckCycles() sim.Cycle {
	if c.StuckCycles > 0 {
		return c.StuckCycles
	}
	return 5_000_000
}

func (c MonitorConfig) maxViolations() int {
	if c.MaxViolations > 0 {
		return c.MaxViolations
	}
	return 64
}

// stuckKey identifies one (core, MSHR entry) pair across samples.
type stuckKey struct {
	core int
	addr proto.Addr
}

// Monitor samples the live system every SampleEvery cycles and applies
// the protocols' stable-state invariants to every line/word that is
// *quiescent at that instant* — no outstanding L1 transaction anywhere,
// directory not busy (MESI), registry not mid-fetch and no unacked
// writeback (DeNovo). Every in-flight protocol action is anchored by one
// of those markers, so transient states (e.g. DeNovo's
// registered-at-issue data stores while the registration is in flight)
// are exempt and everything else must already satisfy the end-of-run
// validator's invariants.
//
// When the event queue drains, the monitor runs the end-of-run
// quiescence checks (no undelivered messages, validator green, backoff
// counters within their mask) and stops rescheduling itself.
type Monitor struct {
	m   *machine.Machine
	cfg MonitorConfig

	mesiL1s []*mesi.L1
	dnvL1s  []*denovo.L1

	violations []Violation
	dropped    int

	firstSeen map[stuckKey]sim.Cycle
	reported  map[stuckKey]bool

	samples  int
	finished bool
}

// NewMonitor builds a monitor for m. Call Start before m.Run.
func NewMonitor(m *machine.Machine, cfg MonitorConfig) *Monitor {
	mo := &Monitor{
		m:         m,
		cfg:       cfg,
		firstSeen: make(map[stuckKey]sim.Cycle),
		reported:  make(map[stuckKey]bool),
	}
	for _, c := range m.L1s {
		switch l1 := c.(type) {
		case *mesi.L1:
			mo.mesiL1s = append(mo.mesiL1s, l1)
		case *denovo.L1:
			mo.dnvL1s = append(mo.dnvL1s, l1)
		}
	}
	return mo
}

// Start arms the sampling loop.
func (mo *Monitor) Start() {
	mo.m.Eng.Schedule(mo.cfg.sampleEvery(), mo.sample)
}

// Violations returns the recorded breaches (order is deterministic).
func (mo *Monitor) Violations() []Violation { return mo.violations }

// Dropped returns how many violations exceeded the recording cap.
func (mo *Monitor) Dropped() int { return mo.dropped }

// Samples returns how many live samples ran.
func (mo *Monitor) Samples() int { return mo.samples }

// Finished reports whether the end-of-run quiescence check ran (it does
// not when the run was aborted, e.g. by the watchdog).
func (mo *Monitor) Finished() bool { return mo.finished }

// Err summarizes the verdict: nil when no violation was observed.
func (mo *Monitor) Err() error {
	if len(mo.violations) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: %d invariant violations (first: %s)",
		len(mo.violations)+mo.dropped, mo.violations[0])
}

func (mo *Monitor) violate(kind, format string, args ...interface{}) {
	if len(mo.violations) >= mo.cfg.maxViolations() {
		mo.dropped++
		return
	}
	mo.violations = append(mo.violations, Violation{
		Cycle:  uint64(mo.m.Eng.Now()),
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

func (mo *Monitor) sample() {
	mo.samples++
	if len(mo.mesiL1s) > 0 {
		mo.checkMESI()
	} else {
		mo.checkDeNovo()
	}
	if mo.m.Eng.Pending() == 0 {
		mo.finishCheck()
		mo.finished = true
		return
	}
	mo.m.Eng.Schedule(mo.cfg.sampleEvery(), mo.sample)
}

// checkMESI applies SWMR, value coherence, and L1/directory agreement to
// every line with no transaction in flight.
func (mo *Monitor) checkMESI() {
	blocked := map[proto.Addr]bool{}
	for _, line := range mo.m.MESIDir.BusyLines() {
		blocked[line] = true
	}
	stuck := make([]stuckKey, 0, 8)
	for ci, l1 := range mo.mesiL1s {
		for _, line := range l1.OutstandingLines() {
			blocked[line] = true
			stuck = append(stuck, stuckKey{ci, line})
		}
	}
	type holder struct {
		owners  []int
		sharers []int
	}
	lines := map[proto.Addr]*holder{}
	var lineOrder []proto.Addr
	for ci, l1 := range mo.mesiL1s {
		ci := ci
		l1.ForEachLine(func(l *cache.Line) {
			if blocked[l.Addr] {
				return
			}
			h := lines[l.Addr]
			if h == nil {
				h = &holder{}
				lines[l.Addr] = h
				lineOrder = append(lineOrder, l.Addr)
			}
			switch {
			case mesi.IsOwned(l.LineState):
				h.owners = append(h.owners, ci)
				for i := 0; i < proto.WordsPerLine; i++ {
					a := l.Addr + proto.Addr(i*proto.WordBytes)
					if l.Values[i] != mo.m.Store.Read(a) {
						mo.violate("value", "owned word %v at core %d diverges from committed image", a, ci)
					}
				}
			case mesi.IsShared(l.LineState):
				h.sharers = append(h.sharers, ci)
			}
		})
	}
	sort.Slice(lineOrder, func(i, j int) bool { return lineOrder[i] < lineOrder[j] })
	for _, line := range lineOrder {
		h := lines[line]
		if len(h.owners) > 1 {
			mo.violate("swmr", "line %v owned (M/E) by cores %v", line, h.owners)
			continue
		}
		if len(h.owners) == 1 {
			if len(h.sharers) > 0 {
				mo.violate("swmr", "line %v owned by core %d alongside sharers %v", line, h.owners[0], h.sharers)
			}
			if owner, ok := mo.m.MESIDir.OwnerOf(line); !ok || int(owner) != h.owners[0] {
				mo.violate("dir-mismatch", "core %d holds line %v M/E but the directory does not record it as owner", h.owners[0], line)
			}
			continue
		}
		// Sharers must be in the directory's set (a missing sharer loses
		// an invalidation); stale extras are legal (silent S eviction).
		if len(h.sharers) > 0 {
			dirSharers := map[proto.CoreID]bool{}
			for _, s := range mo.m.MESIDir.Sharers(line) {
				dirSharers[s] = true
			}
			for _, s := range h.sharers {
				if !dirSharers[proto.CoreID(s)] {
					mo.violate("dir-mismatch", "core %d holds line %v Shared but is missing from the directory's sharer set", s, line)
				}
			}
		}
	}
	mo.checkStuck(stuck)
}

// checkDeNovo applies at-most-one-Registered-per-word, value coherence,
// registry pointer agreement, and registration-queue acyclicity to every
// word whose line has no transaction in flight.
func (mo *Monitor) checkDeNovo() {
	blocked := map[proto.Addr]bool{} // line-granularity quiescence gate
	for _, line := range mo.m.Registry.FetchingLines() {
		blocked[line] = true
	}
	stuck := make([]stuckKey, 0, 8)
	for ci, l1 := range mo.dnvL1s {
		for _, w := range l1.OutstandingWords() {
			blocked[w.Line()] = true
			stuck = append(stuck, stuckKey{ci, w})
		}
		for _, w := range l1.PendingWritebacks() {
			blocked[w.Line()] = true
		}
	}
	holders := map[proto.Addr][]int{}
	var wordOrder []proto.Addr
	for ci, l1 := range mo.dnvL1s {
		ci := ci
		l1.ForEachLine(func(l *cache.Line) {
			if blocked[l.Addr] {
				return
			}
			for i := range l.WordState {
				if !denovo.IsRegistered(l.WordState[i]) {
					continue
				}
				word := l.Addr + proto.Addr(i*proto.WordBytes)
				if _, seen := holders[word]; !seen {
					wordOrder = append(wordOrder, word)
				}
				holders[word] = append(holders[word], ci)
				if l.Values[i] != mo.m.Store.Read(word) {
					mo.violate("value", "registered word %v at core %d diverges from committed image", word, ci)
				}
			}
		})
	}
	sort.Slice(wordOrder, func(i, j int) bool { return wordOrder[i] < wordOrder[j] })
	for _, word := range wordOrder {
		hs := holders[word]
		if len(hs) > 1 {
			mo.violate("swmr", "word %v registered at cores %v", word, hs)
			continue
		}
		if got := mo.m.Registry.OwnerOf(word); got != hs[0] {
			mo.violate("reg-mismatch", "core %d holds word %v registered but the registry points at %d", hs[0], word, got)
		}
	}
	// The converse: an (unblocked) registry pointer must name a core that
	// actually holds the word registered.
	mo.m.Registry.ForEachOwned(func(word proto.Addr, owner proto.CoreID) {
		if blocked[word.Line()] {
			return
		}
		if !mo.dnvL1s[owner].HoldsRegistered(word) {
			mo.violate("reg-mismatch", "registry points word %v at core %d, which does not hold it", word, owner)
		}
	})
	mo.checkParkedCycles()
	mo.checkStuck(stuck)
}

// checkParkedCycles detects a cycle in the per-word wait graph of parked
// forwarded registrations (waiter -> core whose MSHR parks it) — the
// distributed registration queue must stay acyclic or the chain
// deadlocks.
func (mo *Monitor) checkParkedCycles() {
	type edgeMap map[int]int // waiter core -> parking core
	edges := map[proto.Addr]edgeMap{}
	var words []proto.Addr
	for ci, l1 := range mo.dnvL1s {
		for _, w := range l1.OutstandingWords() {
			for _, p := range l1.ParkedRequesters(w) {
				if edges[w] == nil {
					edges[w] = edgeMap{}
					words = append(words, w)
				}
				edges[w][int(p)] = ci
			}
		}
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	for _, w := range words {
		em := edges[w]
		starts := make([]int, 0, len(em))
		for s := range em { //simlint:allow determinism: keys are sorted before use
			starts = append(starts, s)
		}
		sort.Ints(starts)
		for _, s := range starts {
			seen := map[int]bool{s: true}
			cur := s
			for {
				next, ok := em[cur]
				if !ok {
					break
				}
				if seen[next] {
					mo.violate("parked-cycle", "registration wait chain for word %v cycles through core %d", w, next)
					break
				}
				seen[next] = true
				cur = next
			}
		}
	}
}

// checkStuck flags MSHR entries outstanding across samples for longer
// than the stuck budget — leaks that global progress would mask.
func (mo *Monitor) checkStuck(live []stuckKey) {
	if mo.cfg.StuckCycles < 0 {
		return
	}
	now := mo.m.Eng.Now()
	budget := mo.cfg.stuckCycles()
	next := make(map[stuckKey]sim.Cycle, len(live))
	for _, k := range live {
		first, ok := mo.firstSeen[k]
		if !ok {
			first = now
		}
		next[k] = first
		if now-first >= budget && !mo.reported[k] {
			mo.reported[k] = true
			mo.violate("stuck-mshr", "core %d transaction for %v outstanding for %d cycles", k.core, k.addr, now-first)
		}
	}
	mo.firstSeen = next
}

// finishCheck runs the end-of-run quiescence invariants once the event
// queue has drained.
func (mo *Monitor) finishCheck() {
	if n := mo.m.Net.InFlightTotal(); n != 0 {
		mo.violate("quiescence", "%d undelivered network messages after drain", n)
	}
	if err := mo.m.CheckInvariants(); err != nil {
		mo.violate("quiescence", "%v", err)
	}
	mask := sim.Cycle(1)<<mo.m.Params.BackoffBits - 1
	for ci, l1 := range mo.dnvL1s {
		if l1.BackoffCounter() > mask {
			mo.violate("backoff", "core %d backoff counter %d exceeds its %d-bit mask", ci, l1.BackoffCounter(), mo.m.Params.BackoffBits)
		}
		if l1.IncrementCounter() > mask {
			mo.violate("backoff", "core %d backoff increment %d exceeds its %d-bit mask", ci, l1.IncrementCounter(), mo.m.Params.BackoffBits)
		}
	}
}
