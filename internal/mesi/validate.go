package mesi

import (
	"fmt"
	"sort"

	"denovosync/internal/cache"
	"denovosync/internal/proto"
)

// Validate checks the protocol's stable-state invariants across the whole
// system at quiescence (no outstanding transactions). Machines run it
// automatically at the end of every simulation, so every workload doubles
// as an invariant test:
//
//   - at most one M/E copy per line, and never alongside S copies;
//   - the directory's owner field names the L1 that actually holds M/E;
//   - every L1 holding a line in S appears in the directory's sharer set
//     (stale extra sharers are legal — silent S eviction — but a missing
//     sharer would lose an invalidation);
//   - cached values of owned (M/E) words match the committed image;
//   - no L1 has an outstanding transaction and the directory is idle;
//   - every controller's inbox is empty: each message sent was delivered.
func (d *Directory) Validate(l1s []*L1) error {
	if n := d.inbox.Len(); n != 0 {
		return fmt.Errorf("mesi: directory holds %d undelivered messages at quiescence", n)
	}
	if dr := d.cfg.DRAM; dr != nil && dr.InFlight() != 0 {
		return fmt.Errorf("mesi: %d memory fetches unanswered at quiescence", dr.InFlight())
	}
	type holder struct {
		owners  []proto.CoreID
		sharers []proto.CoreID
	}
	lines := map[proto.Addr]*holder{}
	for _, c := range l1s {
		if n := c.inbox.Len(); n != 0 {
			return fmt.Errorf("mesi: L1 %d holds %d undelivered messages at quiescence", c.id, n)
		}
		if len(c.txns) != 0 {
			return fmt.Errorf("mesi: L1 %d has %d outstanding transactions at quiescence", c.id, len(c.txns))
		}
		var err error
		c.cache.ForEach(func(l *cache.Line) {
			h := lines[l.Addr]
			if h == nil {
				h = &holder{}
				lines[l.Addr] = h
			}
			switch l.LineState {
			case lm, le:
				h.owners = append(h.owners, c.id)
				for i := 0; i < proto.WordsPerLine; i++ {
					a := l.Addr + proto.Addr(i*proto.WordBytes)
					if l.Values[i] != d.cfg.Store.Read(a) {
						err = fmt.Errorf("mesi: owned word %v at core %d diverges from committed image", a, c.id)
					}
				}
			case ls:
				h.sharers = append(h.sharers, c.id)
			case li:
				// Present lines are never left Invalid: Install is always
				// immediately followed by a state assignment.
				err = fmt.Errorf("mesi: present line %v at core %d is Invalid", l.Addr, c.id)
			default:
				panic("mesi: unknown line state")
			}
		})
		if err != nil {
			return err
		}
	}
	// Report errors in a fixed line order: which violation surfaces first
	// must not depend on map iteration order.
	addrs := make([]proto.Addr, 0, len(lines))
	for line := range lines { //simlint:allow determinism: keys are sorted before use
		addrs = append(addrs, line)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, line := range addrs {
		h := lines[line]
		if len(h.owners) > 1 {
			return fmt.Errorf("mesi: line %v owned by %v", line, h.owners)
		}
		if len(h.owners) == 1 && len(h.sharers) > 0 {
			return fmt.Errorf("mesi: line %v owned by %d with sharers %v", line, h.owners[0], h.sharers)
		}
		e := d.lookup(line)
		if e == nil {
			if len(h.owners)+len(h.sharers) > 0 {
				return fmt.Errorf("mesi: line %v cached but unknown to the directory", line)
			}
			continue
		}
		if e.busy {
			return fmt.Errorf("mesi: directory busy for line %v at quiescence", line)
		}
		if len(h.owners) == 1 {
			if e.state != dm || e.owner == nil || e.owner.id != h.owners[0] {
				return fmt.Errorf("mesi: directory/owner mismatch for line %v", line)
			}
		}
		for _, s := range h.sharers {
			if e.state != ds || !e.sharers.Has(s) {
				return fmt.Errorf("mesi: sharer %d of line %v missing from directory", s, line)
			}
		}
	}
	return nil
}
