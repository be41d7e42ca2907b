// Package cont pins how the certifier reads typed messages: a Send's
// kind resolves through a local to every handler it can reach, and a
// message the controller posts to its own inbox for the engine runs its
// arm in place — an arm method that is not a declared handler is walked
// as the poster's own code, so its sends are the poster's edges.
package cont

type Class int

const ClassLD Class = 0

// Net stands in for the network: Send delivers a message by calling the
// destination's receive function with the message's inbox slot.
type Net struct{}

func (n *Net) Send(from, to int, cls Class, flits int, recv func(uint64), slot uint64) { recv(slot) }

// Eng stands in for the engine's typed schedule call.
type Eng struct{}

func (e *Eng) ScheduleCall(d int, fn func(uint64), arg uint64) { fn(arg) }

// Inbox holds a controller's in-flight messages.
type Inbox[M any] struct{ slots []M }

func (b *Inbox[M]) Post(m M) uint64 {
	b.slots = append(b.slots, m)
	return uint64(len(b.slots) - 1)
}

func (b *Inbox[M]) At(slot uint64) *M { return &b.slots[slot] }

type msgKind int

const (
	mA     msgKind = iota // to the peer
	mB                    // to the peer
	mIssue                // to itself: send after a latency
)

type msg struct {
	kind  msgKind
	wantB bool
}

type Ctl struct {
	id     int
	net    *Net
	eng    *Eng
	peer   *Ctl
	inbox  Inbox[msg]
	recvFn func(uint64)
}

// recv is the receive function: the message table.
func (c *Ctl) recv(slot uint64) {
	m := c.inbox.At(slot)
	switch m.kind {
	case mA:
		c.recvA()
	case mB:
		c.recvB()
	case mIssue:
		c.issue(m.wantB)
	}
}

// Access issues an A or a B after a latency.
func (c *Ctl) Access(wantB bool) {
	c.eng.ScheduleCall(1, c.recvFn, c.inbox.Post(msg{kind: mIssue, wantB: wantB}))
}

// issue picks the kind through a local.
func (c *Ctl) issue(wantB bool) {
	kind := mA
	if wantB {
		kind = mB
	}
	c.net.Send(c.id, c.peer.id, ClassLD, 1, c.peer.recvFn, c.peer.inbox.Post(msg{kind: kind}))
}

func (c *Ctl) recvA() {}

func (c *Ctl) recvB() {}
