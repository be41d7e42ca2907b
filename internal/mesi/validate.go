package mesi

import (
	"cmp"
	"fmt"
	"slices"

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
	// held lists every line an L1 holds, in L1 order.
	var held []heldLine
	for _, c := range l1s {
		if n := c.inbox.Len(); n != 0 {
			return fmt.Errorf("mesi: L1 %d holds %d undelivered messages at quiescence", c.id, n)
		}
		if len(c.txns) != 0 {
			return fmt.Errorf("mesi: L1 %d has %d outstanding transactions at quiescence", c.id, len(c.txns))
		}
		var err error
		c.cache.ForEach(func(l *cache.Line) {
			switch l.LineState {
			case lm, le:
				held = append(held, heldLine{l.Addr, c.id, true})
				for i := 0; i < proto.WordsPerLine; i++ {
					a := l.Addr + proto.Addr(i*proto.WordBytes)
					if l.Values[i] != d.cfg.Store.Read(a) {
						err = fmt.Errorf("mesi: owned word %v at core %d diverges from committed image", a, c.id)
					}
				}
			case ls:
				held = append(held, heldLine{l.Addr, c.id, false})
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
	// Check each line's run of holders in address order, so which
	// violation surfaces first is fixed; the stable sort keeps each run's
	// cores in L1 order.
	slices.SortStableFunc(held, func(a, b heldLine) int { return cmp.Compare(a.line, b.line) })
	for i := 0; i < len(held); {
		line, j := held[i].line, i+1
		for j < len(held) && held[j].line == line {
			j++
		}
		run := held[i:j]
		i = j
		owners := 0
		var owner proto.CoreID
		for _, h := range run {
			if h.owner {
				owners, owner = owners+1, h.core
			}
		}
		if owners > 1 {
			return fmt.Errorf("mesi: line %v owned by %v", line, holders(run, true))
		}
		if owners == 1 && len(run) > 1 {
			return fmt.Errorf("mesi: line %v owned by %d with sharers %v", line, owner, holders(run, false))
		}
		e := d.lookup(line)
		if e == nil {
			return fmt.Errorf("mesi: line %v cached but unknown to the directory", line)
		}
		if e.busy {
			return fmt.Errorf("mesi: directory busy for line %v at quiescence", line)
		}
		if owners == 1 {
			if e.state != dm || e.owner == nil || e.owner.id != owner {
				return fmt.Errorf("mesi: directory/owner mismatch for line %v", line)
			}
		}
		for _, h := range run {
			if !h.owner && (e.state != ds || !e.sharers.Has(h.core)) {
				return fmt.Errorf("mesi: sharer %d of line %v missing from directory", h.core, line)
			}
		}
	}
	return nil
}

// heldLine records that core holds line, as its owner (M/E) or a sharer
// (S) (see Validate).
type heldLine struct {
	line  proto.Addr
	core  proto.CoreID
	owner bool
}

// holders returns the cores of run that own the line (owners) or share it.
func holders(run []heldLine, owners bool) []proto.CoreID {
	var out []proto.CoreID
	for _, h := range run {
		if h.owner == owners {
			out = append(out, h.core)
		}
	}
	return out
}
