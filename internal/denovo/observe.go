package denovo

import (
	"sort"

	"denovosync/internal/cache"
	"denovosync/internal/proto"
)

// Observer hooks: read-only views of controller and registry state for
// the live invariant monitor and the watchdog's diagnostic snapshot
// (internal/chaos, internal/machine). Observers run on the engine
// goroutine between protocol events and must not mutate what they see.

// OutstandingWords returns the coherence-unit base addresses with an
// outstanding MSHR transaction (registration or data read in flight),
// sorted. A word listed here is mid-transition and exempt from
// stable-state invariant checks.
func (c *L1) OutstandingWords() []proto.Addr {
	out := make([]proto.Addr, 0, len(c.txns))
	for _, t := range c.txns {
		out = append(out, t.word)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ParkedRequesters returns the cores whose forwarded registrations are
// parked in this L1's MSHR entry for word (the distributed registration
// queue), in arrival order. Empty if the word has no outstanding
// transaction.
func (c *L1) ParkedRequesters(word proto.Addr) []proto.CoreID {
	t := c.findTxn(word)
	if t == nil {
		return nil
	}
	out := make([]proto.CoreID, 0, len(t.parked))
	for _, p := range t.parked {
		out = append(out, p.from.id)
	}
	return out
}

// PendingWritebacks returns the words whose eviction writeback has not
// been acked by the registry yet, sorted. Those words are mid-transition
// and exempt from stable-state invariant checks.
func (c *L1) PendingWritebacks() []proto.Addr {
	var out []proto.Addr
	for _, e := range c.wbs {
		out = append(out, e.unit)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PendingStoreCount returns the number of issued-but-uncommitted
// non-blocking stores.
func (c *L1) PendingStoreCount() int { return c.pendingStores }

// ForEachLine visits every cached line in deterministic order.
func (c *L1) ForEachLine(fn func(l *cache.Line)) { c.cache.ForEach(fn) }

// HoldsRegistered reports whether this L1 currently caches word in the
// Registered state.
func (c *L1) HoldsRegistered(word proto.Addr) bool {
	l := c.cache.Lookup(word)
	return l != nil && l.WordState[word.WordIndex()] == wr
}

// IsRegistered reports whether s is the Registered word state.
func IsRegistered(s cache.WordState) bool { return s == wr }

// IsValidWord reports whether s is the Valid word state.
func IsValidWord(s cache.WordState) bool { return s == wv }

// FetchingLines returns the registry lines currently mid cold-fetch
// (requests queue behind the fetch), sorted. Words of those lines are
// exempt from stable-state invariant checks.
func (r *Registry) FetchingLines() []proto.Addr {
	var out []proto.Addr
	r.forEachLine(func(lineAddr proto.Addr, e *regLine) {
		if e.fetching || len(e.pending) > 0 {
			out = append(out, lineAddr)
		}
	})
	return out
}

// ForEachOwned visits every word the registry has pointed at a core
// (owner != L2), in ascending word order.
func (r *Registry) ForEachOwned(fn func(word proto.Addr, owner proto.CoreID)) {
	r.forEachLine(func(lineAddr proto.Addr, e *regLine) {
		for i, o := range e.owner {
			if o == ownerL2 {
				continue
			}
			fn(lineAddr+proto.Addr(i*proto.WordBytes), proto.CoreID(o))
		}
	})
}
