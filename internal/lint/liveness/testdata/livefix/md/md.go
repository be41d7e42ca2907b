// Package md pins two planted directory bugs. recvPut is the pre-fix
// MESI stale-Put shape: ownership is retired on sender identity alone,
// with no epoch (grant-serial) check, so a stale writeback racing a
// re-grant can revoke the newer owner (stale-retire). recvDrop consumes
// a request and silently returns while the entry is busy — neither
// answered, parked, nor fail-stopped (unanswered-request).
package md

type Class int

const ClassWB Class = 0

// Net stands in for the network: Send delivers a message by calling the
// destination's receive function with the message's inbox slot.
type Net struct{}

func (n *Net) Send(from, to int, cls Class, flits int, recv func(uint64), slot uint64) { recv(slot) }

// Inbox holds a controller's in-flight messages.
type Inbox[M any] struct{ slots []M }

func (b *Inbox[M]) Post(m M) uint64 {
	b.slots = append(b.slots, m)
	return uint64(len(b.slots) - 1)
}

func (b *Inbox[M]) Take(slot uint64) M { return b.slots[slot] }

type msgKind int

const mAck msgKind = 0 // writeback ack to the L1

type msg struct {
	kind msgKind
	line int
}

type entry struct {
	state int
	owner *L1
	busy  bool
}

type L1 struct {
	node   int
	inbox  Inbox[msg]
	recvFn func(uint64)
}

// recv is the L1's receive function: the message table.
func (c *L1) recv(slot uint64) {
	m := c.inbox.Take(slot)
	switch m.kind {
	case mAck:
		c.recvAck(m.line)
	}
}

func (c *L1) recvAck(line int) {}

type Dir struct {
	node    int
	net     *Net
	entries map[int]*entry
}

// recvPut retires ownership if the sender is the recorded owner: no
// grant-serial freshness check.
func (d *Dir) recvPut(line int, from *L1) {
	e := d.entries[line]
	if !e.busy && e.owner == from {
		e.state = 0
		e.owner = nil
	}
	d.net.Send(d.node, from.node, ClassWB, 1, from.recvFn, from.inbox.Post(msg{kind: mAck, line: line}))
}

// recvDrop silently drops the request while the entry is busy.
func (d *Dir) recvDrop(line int, from *L1) {
	e := d.entries[line]
	if e.busy {
		return
	}
	d.net.Send(d.node, from.node, ClassWB, 1, from.recvFn, from.inbox.Post(msg{kind: mAck, line: line}))
}
