// Package bound pins bound-continuation resolution: the only wakeup of
// its park chain runs through a continuation field bound once in NewCtl,
// which Access hands to the event queue instead of calling. Resolving
// each use of the field into calls of what its binding calls makes the
// discharge reachable, so the park certifies clean.
package bound

type Ctl struct {
	pending int
	waiters []func()

	// schedule stands in for the engine's typed schedule call.
	schedule func(fn func(uint64), arg uint64)
	doneFn   func(uint64)
}

// NewCtl binds the store-retirement continuation once.
func NewCtl(schedule func(fn func(uint64), arg uint64)) *Ctl {
	c := &Ctl{schedule: schedule}
	c.doneFn = func(uint64) { c.retire() }
	return c
}

// Access starts a store; it retires later through doneFn.
func (c *Ctl) Access() {
	c.pending++
	c.schedule(c.doneFn, 0)
}

// OnDrained parks fn until every store has retired.
func (c *Ctl) OnDrained(fn func()) {
	if c.pending == 0 {
		fn()
		return
	}
	c.waiters = append(c.waiters, fn)
}

// retire is reachable only through doneFn.
func (c *Ctl) retire() {
	c.pending--
	if c.pending == 0 {
		ws := c.waiters
		c.waiters = nil
		for _, fn := range ws {
			fn()
		}
	}
}
