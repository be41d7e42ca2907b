// Package dn pins the pre-fix shape of the denovo registration-forward
// parking deadlock: recvFwdReg parks every forwarded request while a
// local registration is in flight, with no serialization-order guard.
// Two L1s forwarding to each other can then park each other's
// registration forever. The liveness certifier must flag the park as a
// mutual-park violation; the fixed tree (guarded by the registry-serial
// ordering comparison) must stay silent.
package dn

type Class int

const (
	ClassST Class = iota
	ClassSynch
)

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

func (b *Inbox[M]) Take(slot uint64) M { return b.slots[slot] }

type msgKind int

const (
	mRegAck     msgKind = iota // registration ack to the requester
	mServiceFwd                // service a forward after the remote-L1 latency
)

type msg struct {
	kind        msgKind
	word, akind int
	from        *L1
}

type parked struct {
	kind int
	from *L1
}

type txn struct {
	word    int
	parked  []parked
	waiters []func()
}

type L1 struct {
	node   int
	net    *Net
	eng    *Eng
	txns   map[int]*txn
	inbox  Inbox[msg]
	recvFn func(uint64)
}

// recv is the receive function: the message table.
func (c *L1) recv(slot uint64) {
	m := c.inbox.Take(slot)
	switch m.kind {
	case mRegAck:
		c.recvRegAck(m.word, m.akind)
	case mServiceFwd:
		c.serviceFwd(m.akind, m.from, m.word)
	}
}

// recvFwdReg parks the forwarded request whenever a local registration
// is outstanding — unconditionally, which is the deadlock.
func (c *L1) recvFwdReg(word, kind int, from *L1) {
	if t := c.txns[word]; t != nil {
		t.parked = append(t.parked, parked{kind: kind, from: from})
		return
	}
	c.eng.ScheduleCall(1, c.recvFn, c.inbox.Post(msg{kind: mServiceFwd, word: word, akind: kind, from: from}))
}

func (c *L1) serviceFwd(kind int, from *L1, word int) {
	c.net.Send(c.node, from.node, ClassSynch, 1, from.recvFn, from.inbox.Post(msg{kind: mRegAck, word: word, akind: kind}))
}

func (c *L1) recvRegAck(word, kind int) {
	t := c.txns[word]
	if t == nil {
		panic("dn: ack without txn")
	}
	delete(c.txns, word)
	for _, fn := range t.waiters {
		fn()
	}
	for _, p := range t.parked {
		c.serviceFwd(p.kind, p.from, word)
	}
}
