package denovo

import (
	"cmp"
	"fmt"
	"slices"

	"denovosync/internal/cache"
	"denovosync/internal/proto"
)

// Validate checks DeNovo's stable-state invariants across the system at
// quiescence. Machines run it automatically at the end of every
// simulation:
//
//   - at most one Registered copy per word;
//   - the registry's owner pointer names the L1 that actually holds the
//     word Registered (a registry pointer at an L1 that dropped the word
//     would strand requests);
//   - Registered word values match the committed image;
//   - no outstanding transactions, parked forwards, or pending
//     writeback acks remain;
//   - every controller's inbox is empty: each message sent was delivered;
//   - every L1's fills slab is empty: each data fill's values were read.
func (r *Registry) Validate(l1s []*L1) error {
	if n := r.inbox.Len(); n != 0 {
		return fmt.Errorf("denovo: registry holds %d undelivered messages at quiescence", n)
	}
	if d := r.cfg.DRAM; d != nil && d.InFlight() != 0 {
		return fmt.Errorf("denovo: %d memory fetches unanswered at quiescence", d.InFlight())
	}
	// held lists every Registered word an L1 holds, in L1 order.
	var held []heldWord
	for _, c := range l1s {
		if n := c.inbox.Len(); n != 0 {
			return fmt.Errorf("denovo: L1 %d holds %d undelivered messages at quiescence", c.id, n)
		}
		if n := c.fills.Len(); n != 0 {
			return fmt.Errorf("denovo: L1 %d holds %d undelivered data-fill values at quiescence", c.id, n)
		}
		if len(c.txns) != 0 {
			return fmt.Errorf("denovo: L1 %d has %d outstanding transactions at quiescence", c.id, len(c.txns))
		}
		if len(c.wbs) != 0 {
			return fmt.Errorf("denovo: L1 %d has %d unacked writebacks at quiescence", c.id, len(c.wbs))
		}
		var err error
		c.cache.ForEach(func(l *cache.Line) {
			for i, st := range l.WordState {
				if st != wr {
					continue
				}
				word := l.Addr + proto.Addr(i*proto.WordBytes)
				held = append(held, heldWord{word, c.id})
				if l.Values[i] != r.cfg.Store.Read(word) {
					err = fmt.Errorf("denovo: registered word %v at core %d diverges from committed image", word, c.id)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	// Check each word's run of holders in address order, so which
	// violation surfaces first is fixed; the stable sort keeps each run's
	// cores in L1 order.
	slices.SortStableFunc(held, func(a, b heldWord) int { return cmp.Compare(a.word, b.word) })
	for i := 0; i < len(held); {
		word, j := held[i].word, i+1
		for j < len(held) && held[j].word == word {
			j++
		}
		if j-i > 1 {
			cores := make([]proto.CoreID, 0, j-i)
			for _, h := range held[i:j] {
				cores = append(cores, h.core)
			}
			return fmt.Errorf("denovo: word %v registered at %v", word, cores)
		}
		if got := r.OwnerOf(word); got != int(held[i].core) {
			return fmt.Errorf("denovo: registry says word %v belongs to %d, but core %d holds it", word, got, held[i].core)
		}
		i = j
	}
	// The converse: a registry pointer must name a core that still holds
	// the word (or the word was never cached — impossible once pointed).
	var err error
	r.forEachLine(func(lineAddr proto.Addr, e *regLine) {
		for i, o := range e.owner {
			if o == ownerL2 || err != nil {
				continue
			}
			word := lineAddr + proto.Addr(i*proto.WordBytes)
			l := l1s[o].cache.Lookup(word)
			if l == nil || l.WordState[word.WordIndex()] != wr {
				err = fmt.Errorf("denovo: registry points word %v at core %d, which does not hold it", word, o)
			}
		}
	})
	return err
}

// heldWord records that core holds word Registered (see Validate).
type heldWord struct {
	word proto.Addr
	core proto.CoreID
}
