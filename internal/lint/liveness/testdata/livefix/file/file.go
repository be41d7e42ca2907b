// Package file pins the outstanding-file shape of a finite resource: a
// slice of record pointers searched linearly, whose appends allocate an
// entry and whose drop helper (an element store plus a shrink) frees
// one. The free list beside it only pops its top entry and the peer
// table is only ever appended to, so neither is a resource.
package file

type txn struct {
	line    int
	waiters []func()
}

type Ctl struct {
	txns    []*txn
	txnFree []*txn
	peers   []*Ctl
}

// AddPeer wires another controller.
func (c *Ctl) AddPeer(p *Ctl) { c.peers = append(c.peers, p) }

// Access files a miss for line, or rides the outstanding one.
func (c *Ctl) Access(line int, fn func()) {
	if t := c.findTxn(line); t != nil {
		t.waiters = append(t.waiters, fn)
		return
	}
	t := c.allocTxn(line)
	t.waiters = append(t.waiters, fn)
	c.txns = append(c.txns, t)
}

// recvFill completes line's miss.
func (c *Ctl) recvFill(line int) {
	t := c.findTxn(line)
	if t == nil {
		return
	}
	c.dropTxn(t)
	for _, fn := range t.waiters {
		fn()
	}
	t.waiters = t.waiters[:0]
	c.txnFree = append(c.txnFree, t)
}

func (c *Ctl) allocTxn(line int) *txn {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		t.line = line
		return t
	}
	return &txn{line: line}
}

func (c *Ctl) findTxn(line int) *txn {
	for _, t := range c.txns {
		if t.line == line {
			return t
		}
	}
	return nil
}

func (c *Ctl) dropTxn(t *txn) {
	last := len(c.txns) - 1
	for i, u := range c.txns {
		if u == t {
			c.txns[i] = c.txns[last]
			c.txns = c.txns[:last]
			return
		}
	}
}
