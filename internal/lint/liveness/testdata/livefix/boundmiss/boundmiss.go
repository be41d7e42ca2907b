// Package boundmiss is bound's defective twin: the continuation bound in
// NewCtl only counts the store down and never reaches the drain, so the
// park chain has no reachable discharge and is still flagged.
package boundmiss

type Ctl struct {
	pending int
	waiters []func()

	// schedule stands in for the engine's typed schedule call.
	schedule func(fn func(uint64), arg uint64)
	doneFn   func(uint64)
}

// NewCtl binds the store-retirement continuation once — to the wrong
// method.
func NewCtl(schedule func(fn func(uint64), arg uint64)) *Ctl {
	c := &Ctl{schedule: schedule}
	c.doneFn = func(uint64) { c.countDown() }
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

// countDown retires a store without waking the drain waiters.
func (c *Ctl) countDown() {
	c.pending--
}

// retire would wake them, but nothing reaches it.
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
