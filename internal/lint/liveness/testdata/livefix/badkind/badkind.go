// Package badkind sends a message whose kind is a parameter: no constant
// names the handler it reaches, so extraction must fail rather than
// drop the edge.
package badkind

type Class int

const ClassLD Class = 0

type Net struct{}

func (n *Net) Send(from, to int, cls Class, flits int, recv func(uint64), slot uint64) { recv(slot) }

type Inbox[M any] struct{ slots []M }

func (b *Inbox[M]) Post(m M) uint64 {
	b.slots = append(b.slots, m)
	return uint64(len(b.slots) - 1)
}

func (b *Inbox[M]) At(slot uint64) *M { return &b.slots[slot] }

type msgKind int

const (
	mA msgKind = iota
	mB
)

type msg struct{ kind msgKind }

type Ctl struct {
	id     int
	net    *Net
	peer   *Ctl
	inbox  Inbox[msg]
	recvFn func(uint64)
}

func (c *Ctl) recv(slot uint64) {
	m := c.inbox.At(slot)
	switch m.kind {
	case mA:
		c.recvA()
	case mB:
		c.recvA()
	}
}

// Forward sends whatever kind it is handed.
func (c *Ctl) Forward(kind msgKind) {
	c.net.Send(c.id, c.peer.id, ClassLD, 1, c.peer.recvFn, c.peer.inbox.Post(msg{kind: kind}))
}

func (c *Ctl) recvA() {}
