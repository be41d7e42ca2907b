package mesi

import (
	"sort"

	"denovosync/internal/cache"
	"denovosync/internal/proto"
)

// Observer hooks: read-only views of controller state for the live
// invariant monitor and the watchdog's diagnostic snapshot
// (internal/chaos, internal/machine). Observers run on the engine
// goroutine between protocol events and must not mutate what they see.

// OutstandingLines returns the lines with an outstanding L1 transaction
// (miss/upgrade in flight), sorted. A line listed here is mid-transition
// and exempt from stable-state invariant checks.
func (c *L1) OutstandingLines() []proto.Addr {
	out := make([]proto.Addr, 0, len(c.txns))
	for _, t := range c.txns {
		out = append(out, t.line)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PendingStoreCount returns the number of issued-but-uncommitted
// non-blocking stores.
func (c *L1) PendingStoreCount() int { return c.pendingStores }

// ForEachLine visits every cached line in deterministic order.
func (c *L1) ForEachLine(fn func(l *cache.Line)) { c.cache.ForEach(fn) }

// IsOwned reports whether s is an ownership state (M or E).
func IsOwned(s cache.LineState) bool { return s == lm || s == le }

// IsShared reports whether s is the Shared state.
func IsShared(s cache.LineState) bool { return s == ls }

// BusyLines returns the lines the directory currently has blocked for an
// in-flight transaction, sorted. A busy line is mid-transition and exempt
// from stable-state invariant checks.
func (d *Directory) BusyLines() []proto.Addr {
	var out []proto.Addr
	d.forEachEntry(func(line proto.Addr, e *dirEntry) {
		if e.busy {
			out = append(out, line)
		}
	})
	return out
}

// OwnerOf returns the core the directory records as line's M-state owner
// (ok = false when the directory holds the line in I or S).
func (d *Directory) OwnerOf(line proto.Addr) (proto.CoreID, bool) {
	e := d.lookup(line)
	if e == nil || e.state != dm || e.owner == nil {
		return 0, false
	}
	return e.owner.id, true
}

// Sharers returns the core IDs the directory lists as sharers of line,
// sorted (empty if the line is unknown or not in the Shared state).
func (d *Directory) Sharers(line proto.Addr) []proto.CoreID {
	e := d.lookup(line)
	if e == nil {
		return nil
	}
	var out []proto.CoreID
	for id := e.sharers.Next(0); id >= 0; id = e.sharers.Next(id + 1) {
		out = append(out, id)
	}
	return out
}
