package denovo

import (
	"fmt"
	"sort"

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
//   - every controller's inbox is empty: each message sent was delivered.
func (r *Registry) Validate(l1s []*L1) error {
	if n := r.inbox.Len(); n != 0 {
		return fmt.Errorf("denovo: registry holds %d undelivered messages at quiescence", n)
	}
	if d := r.cfg.DRAM; d != nil && d.InFlight() != 0 {
		return fmt.Errorf("denovo: %d memory fetches unanswered at quiescence", d.InFlight())
	}
	owners := map[proto.Addr][]proto.CoreID{}
	for _, c := range l1s {
		if n := c.inbox.Len(); n != 0 {
			return fmt.Errorf("denovo: L1 %d holds %d undelivered messages at quiescence", c.id, n)
		}
		if len(c.txns) != 0 {
			return fmt.Errorf("denovo: L1 %d has %d outstanding transactions at quiescence", c.id, len(c.txns))
		}
		if len(c.wbPending) != 0 {
			return fmt.Errorf("denovo: L1 %d has %d unacked writebacks at quiescence", c.id, len(c.wbPending))
		}
		var err error
		c.cache.ForEach(func(l *cache.Line) {
			for i, st := range l.WordState {
				if st != wr {
					continue
				}
				word := l.Addr + proto.Addr(i*proto.WordBytes)
				owners[word] = append(owners[word], c.id)
				if l.Values[i] != r.cfg.Store.Read(word) {
					err = fmt.Errorf("denovo: registered word %v at core %d diverges from committed image", word, c.id)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	// Report errors in a fixed address order: which violation surfaces
	// first must not depend on map iteration order.
	words := make([]proto.Addr, 0, len(owners))
	for word := range owners { //simlint:allow determinism: keys are sorted before use
		words = append(words, word)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	for _, word := range words {
		os := owners[word]
		if len(os) > 1 {
			return fmt.Errorf("denovo: word %v registered at %v", word, os)
		}
		if got := r.OwnerOf(word); got != int(os[0]) {
			return fmt.Errorf("denovo: registry says word %v belongs to %d, but core %d holds it", word, got, os[0])
		}
	}
	// The converse: a registry pointer must name a core that still holds
	// the word (or the word was never cached — impossible once pointed).
	var lineAddrs []proto.Addr
	r.forEachLine(func(lineAddr proto.Addr, _ *regLine) { lineAddrs = append(lineAddrs, lineAddr) })
	sort.Slice(lineAddrs, func(i, j int) bool { return lineAddrs[i] < lineAddrs[j] })
	for _, lineAddr := range lineAddrs {
		e := r.lookup(lineAddr)
		for i, o := range e.owner {
			if o == ownerL2 {
				continue
			}
			word := lineAddr + proto.Addr(i*proto.WordBytes)
			l := l1s[o].cache.Lookup(word)
			if l == nil || l.WordState[word.WordIndex()] != wr {
				return fmt.Errorf("denovo: registry points word %v at core %d, which does not hold it", word, o)
			}
		}
	}
	return nil
}
