// Package ping pins the class-cycle rule: two arms that answer each
// other on the same network class, with no finite-queue discharge in
// the cycle, can ping-pong forever without making progress.
package ping

type Class int

const ClassSynch Class = 0

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

const (
	mPing msgKind = iota
	mPong
)

type msg struct {
	kind msgKind
	v    int
}

type Node struct {
	net    *Net
	id     int
	peer   *Node
	inbox  Inbox[msg]
	recvFn func(uint64)
}

// recv is the receive function: the message table.
func (a *Node) recv(slot uint64) {
	m := a.inbox.Take(slot)
	switch m.kind {
	case mPing:
		a.recvPing(m.v)
	case mPong:
		a.recvPong(m.v)
	}
}

func (a *Node) recvPing(v int) {
	a.net.Send(a.id, a.peer.id, ClassSynch, 1, a.peer.recvFn, a.peer.inbox.Post(msg{kind: mPong, v: v}))
}

func (a *Node) recvPong(v int) {
	a.net.Send(a.id, a.peer.id, ClassSynch, 1, a.peer.recvFn, a.peer.inbox.Post(msg{kind: mPing, v: v}))
}
