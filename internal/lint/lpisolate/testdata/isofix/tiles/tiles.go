// Package tiles is the fixture tile-controller package: its Ctrl type
// seeds the tile domain and deliberately plants every cross-tile sharing
// shape the prover must catch — plus the sanctioned alternatives it must
// not flag.
package tiles

import "isofix/fabric"

// Mut is the mutating interface the host reaches controllers through.
type Mut interface {
	Bump()
}

// Ctrl is the fixture tile controller.
type Ctrl struct {
	id    int
	count int
	net   *fabric.Net
	next  *Ctrl
	peers []*Ctrl
	index map[int]*Ctrl

	obs  func(int) //lpisolate:boundary(audited read-only observer: fixture analog of the coverage hooks)
	hook func(int)
}

// NewCtrl wires one controller; report runs in tile context.
func NewCtrl(id int, net *fabric.Net, report func(int)) *Ctrl {
	c := &Ctrl{id: id, net: net, index: map[int]*Ctrl{}}
	report(c.id)
	return c
}

// SetObserver installs the audited observer (boundary field).
func (c *Ctrl) SetObserver(fn func(int)) {
	c.obs = fn
}

// SetHook installs the unaudited hook (stays class injected).
func (c *Ctrl) SetHook(fn func(int)) {
	c.hook = fn
}

// SetNext wires the deliberately shared peer pointer.
func (c *Ctrl) SetNext(n *Ctrl) {
	c.next = n
}

// SetPeers wires the slice-of-pointer and map-value sharing shapes.
func (c *Ctrl) SetPeers(ps []*Ctrl) {
	c.peers = ps
	for _, p := range ps {
		c.index[p.id] = p
	}
}

// Bump mutates only the controller's own state; the observer call is an
// audited boundary crossing, not a finding.
func (c *Ctrl) Bump() {
	c.count++
	if c.obs != nil {
		c.obs(c.count)
	}
}

// Fire invokes the unaudited hook: injected without a boundary — finding.
func (c *Ctrl) Fire() {
	if c.hook != nil {
		c.hook(c.count)
	}
}

// PlantNext is the planted cross-tile pointer mutation.
func (c *Ctrl) PlantNext() {
	c.next.count = 7
}

// PlantSlice writes a peer through the shared slice-of-pointer view.
func (c *Ctrl) PlantSlice(i int) {
	c.peers[i].count++
}

// PlantMap writes a peer through a map value.
func (c *Ctrl) PlantMap(k int) {
	c.index[k].count = 1
}

// SendBump is the sanctioned path: the peer mutates inside the delivery
// closure the fabric runs at the destination.
func (c *Ctrl) SendBump(dst *Ctrl) {
	c.net.Send(c.id, dst.id, func() {
		dst.recvBump()
	})
}

func (c *Ctrl) recvBump() {
	c.count++
}

// PlantScheduled hands a peer's mutating method to the event API: the
// event runs in this tile's context, so the peer mutation is a finding.
func (c *Ctrl) PlantScheduled() {
	c.net.ScheduleCall(c.next.addCount, 1)
}

// ScheduleOwn schedules the controller's own mutating method: legal.
func (c *Ctrl) ScheduleOwn() {
	c.net.ScheduleCall(c.addCount, 1)
}

func (c *Ctrl) addCount(n uint64) {
	c.count += int(n)
}

// Count reads the controller's own state.
func (c *Ctrl) Count() int {
	return c.count
}
