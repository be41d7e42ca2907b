// Package fabric is the fixture interconnect: Send runs the delivery
// closure at the destination, like the real NoC.
package fabric

// Net is the shared fabric of the fixture machine.
type Net struct {
	slots []slot
	queue []func() //lpisolate:boundary(fixture delivery queue: the PDES port replaces it with the event exchange)
}

// slot is one node's per-endpoint traffic counter.
type slot struct {
	sent int
}

// New builds the fabric with one slot per node.
func New(n int) *Net {
	return &Net{slots: make([]slot, n)}
}

// Send enqueues a delivery closure; the source writes only its own slot.
func (n *Net) Send(src, dst int, deliver func()) {
	n.slots[src].sent++
	n.queue = append(n.queue, deliver)
}

// ScheduleCall is the fixture event API: fn(arg) runs later in the
// scheduling tile's own context, like sim.Engine.ScheduleCall.
func (n *Net) ScheduleCall(fn func(uint64), arg uint64) {
	n.queue = append(n.queue, func() { fn(arg) })
}

// Drain runs the pending deliveries.
func (n *Net) Drain() {
	for len(n.queue) > 0 {
		d := n.queue[0]
		n.queue = n.queue[1:]
		d()
	}
}

// Sent reports node i's send count.
func (n *Net) Sent(i int) int {
	return n.slots[i].sent
}
