// Package sim provides the discrete-event simulation engine that drives
// every other component of the simulator: the network, the caches, the
// protocol controllers, and the cores.
//
// One single-threaded engine drives a whole machine. All simulated
// concurrency is expressed as events dispatched in the order of the key
//
//	(at, schedAt, band|payload)
//
// where at is the dispatch cycle, schedAt the cycle the event was created
// (always the clock at the moment it was scheduled), and the final word
// breaks remaining ties: locally scheduled events (band 0) carry the
// engine's own sequence number — FIFO by schedule order — and
// cross-router message arrivals (band 1, see ScheduleArrivalAt) carry
// (source node, per-source message counter). The arrival band is what
// orders same-cycle arrivals in every golden and digest recorded so far,
// so it stays even though one engine could order them by sequence number
// alone: switching would reorder those arrivals and move every recorded
// result.
//
// The queue is a hashed timing wheel in front of a binary heap, and it
// allocates nothing on the hot path: events live in a pooled arena
// recycled through a free list. An event due fewer than wheelSize (64)
// cycles ahead — nearly all of them, zero-delay completions and wakeups
// included — goes on its cycle's list in the wheel, threaded through the
// arena; a uint64 occupancy mask finds the next non-empty cycle with one
// rotate and one trailing-zero count. Only events due wheelSize or more
// cycles ahead go on the index-based heap. Dispatch order is exactly the
// key order:
//
//   - at cycle t, heap events come first: each was scheduled at least
//     wheelSize cycles before t, and every wheel event for t was
//     scheduled later than that, so the heap events' schedAt is lower;
//   - a cycle's list is kept sorted by (schedAt, key). An event is
//     scheduled at the current clock, the list's largest schedAt, so it
//     is inserted from the tail and nearly always stays there. Only two
//     kinds of event ever move forward: an arrival out of (src, ctr)
//     order among the arrivals sent this cycle, and a band-0 event
//     behind arrivals sent this cycle for the same cycle.
//
// Events are typed, so that hot paths schedule without allocating. An
// event runs either a func() or a func(uint64) with an argument
// (ScheduleCall): a caller holding a continuation bound once at
// construction passes it with its value instead of wrapping both in a
// fresh closure. Message deliveries always take the second form: the
// network schedules the destination controller's bound receive function
// with the inbox slot of the message (ScheduleTagged, ScheduleArrivalAt).
// An event may also carry a small Tag, and the engine counts dispatched
// events per tag (Dispatched); the network tags each delivery with its
// message class, which makes in-flight accounting a subtraction rather
// than a wrapper closure per message. Neither the payload form nor the
// tag affects ordering: every schedule consumes exactly one sequence
// number, whatever its form.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// event is work scheduled to run at a particular cycle: fn(), or
// call(arg) when call is set. schedAt and key order same-cycle events
// deterministically (see the package comment). Events are pooled: next
// links free arena slots, and next and prev link a wheel cycle's list.
type event struct {
	at      Cycle
	schedAt Cycle
	key     uint64
	fn      func()
	call    func(uint64)
	arg     uint64
	next    int32 // free-list or wheel-list link; -1 terminates
	prev    int32 // wheel-list back link; -1 at the list head
	tag     Tag
}

// Tag labels an event for per-tag dispatch counting (see Dispatched).
// Tag 0 is the default of untagged events; tags never affect ordering.
type Tag uint8

// NumTags bounds the tag space: valid tags are 0..NumTags-1.
const NumTags = 8

const nilIdx = int32(-1)

// arrivalBand marks a cross-router arrival key (band 1); band-0 keys are
// sequence numbers.
const arrivalBand = uint64(1) << 63

// arrivalCtrBits is the per-source message counter width inside an arrival
// key; the source node occupies the bits above it.
const arrivalCtrBits = 40

// wheelSize is the timing wheel's span in cycles: an event due fewer than
// wheelSize cycles ahead goes on the wheel, a later one on the heap. It
// equals the occupancy mask's width. Measured on the benchmark workloads,
// 0.06–3.6% of schedules land this far ahead.
const wheelSize = 64

// wheelList is one cycle's events in dispatch order: the arena indices of
// its first and last event. It is meaningful only while the cycle's bit
// in Engine.occupied is set.
type wheelList struct{ head, tail int32 }

// Engine is a discrete-event simulator. Create one with NewEngine.
type Engine struct {
	arena []event // pooled event storage
	free  int32   // head of the free list into arena

	// wheel[c%wheelSize] lists the events due at cycle c, for every c in
	// [now, now+wheelSize); bit c%wheelSize of occupied is set when that
	// list is non-empty. wheelLen counts the events on all lists.
	wheel    [wheelSize]wheelList
	occupied uint64
	wheelLen int

	// heap holds the events due wheelSize or more cycles after they were
	// scheduled: a binary heap of arena indices ordered by (at, schedAt,
	// key).
	heap []int32

	now     Cycle
	seq     uint64
	stopped bool

	// dispatched counts dispatched events per tag.
	dispatched [NumTags]uint64

	// Executed counts events dispatched since construction; useful for
	// detecting livelock in tests.
	Executed uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{free: nilIdx} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// alloc takes an arena slot from the free list (or grows the arena) for
// an event due at cycle at and scheduled now; the caller sets the payload
// and tag.
func (e *Engine) alloc(at Cycle, key uint64) int32 {
	if i := e.free; i != nilIdx {
		ev := &e.arena[i]
		e.free = ev.next
		ev.at, ev.schedAt, ev.key = at, e.now, key
		return i
	}
	e.arena = append(e.arena, event{at: at, schedAt: e.now, key: key})
	return int32(len(e.arena) - 1)
}

// release returns slot i to the free list, dropping the payload so the
// pool does not retain captured state.
func (e *Engine) release(i int32) {
	ev := &e.arena[i]
	ev.fn, ev.call = nil, nil
	ev.next = e.free
	e.free = i
}

// TraceSchedule, when non-nil, observes every local schedule — Schedule,
// ScheduleTagged, ScheduleCall and At — with the sequence number it
// consumes. Diagnostic hook: two runs are bit-identical iff their
// schedule traces match, so diffing traces pinpoints the first divergent
// event when an optimization that claims to preserve behavior does not.
var TraceSchedule func(now Cycle, delay Cycle, seq uint64)

// Schedule runs fn after delay cycles (0 = later this cycle, after events
// already queued for this cycle).
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.schedule(delay, fn, nil, 0, 0)
}

// ScheduleTagged is ScheduleCall for an event counted under tag when it
// dispatches (see Dispatched).
func (e *Engine) ScheduleTagged(delay Cycle, tag Tag, fn func(uint64), arg uint64) {
	checkTag(tag)
	e.schedule(delay, nil, fn, arg, tag)
}

// ScheduleCall runs fn(arg) after delay cycles. It takes the same queue
// position and sequence number as Schedule(delay, func() { fn(arg) })
// would, without allocating that closure: callers pass a continuation
// bound once and the value it completes with.
func (e *Engine) ScheduleCall(delay Cycle, fn func(uint64), arg uint64) {
	e.schedule(delay, nil, fn, arg, 0)
}

// schedule enqueues a band-0 event after delay cycles that runs fn(), or
// call(arg) when call is set, consuming the next sequence number.
func (e *Engine) schedule(delay Cycle, fn func(), call func(uint64), arg uint64, tag Tag) {
	if TraceSchedule != nil {
		TraceSchedule(e.now, delay, e.seq+1)
	}
	if fn == nil && call == nil {
		panic("sim: Schedule with nil fn")
	}
	e.seq++
	i := e.alloc(e.now+delay, e.seq)
	ev := &e.arena[i]
	ev.fn, ev.call, ev.arg, ev.tag = fn, call, arg, tag
	e.push(i, delay)
}

func checkTag(tag Tag) {
	if tag >= NumTags {
		panic("sim: event tag out of range")
	}
}

// ScheduleArrivalAt enqueues a cross-router message arrival sent now:
// fn(arg) runs at the absolute cycle at, ordered against all other events
// by (at, now, src, ctr) rather than by sequence number. src is the
// sending node and ctr the sender's running arrival counter. The key is
// kept because the recorded goldens and digests were produced under it
// (see the package comment). at must be later than now: cross-router
// latency is at least one cycle, and an arrival due this cycle could sort
// before events already dispatched. The arrival counts under tag when it
// dispatches.
func (e *Engine) ScheduleArrivalAt(at Cycle, src uint32, ctr uint64, tag Tag, fn func(uint64), arg uint64) {
	if fn == nil {
		panic("sim: ScheduleArrivalAt with nil fn")
	}
	if at <= e.now {
		panic("sim: arrival due no later than the cycle it was sent")
	}
	if ctr >= 1<<arrivalCtrBits {
		panic("sim: arrival counter overflow")
	}
	checkTag(tag)
	i := e.alloc(at, arrivalBand|uint64(src)<<arrivalCtrBits|ctr)
	ev := &e.arena[i]
	ev.call, ev.arg, ev.tag = fn, arg, tag
	e.push(i, at-e.now)
}

// Dispatched returns the number of events carrying tag that have been
// dispatched since construction.
func (e *Engine) Dispatched(tag Tag) uint64 { return e.dispatched[tag] }

// At runs fn at the absolute cycle t. Scheduling in the past panics: it
// would silently corrupt causality.
func (e *Engine) At(t Cycle, fn func()) {
	if t < e.now {
		panic("sim: At scheduled in the past")
	}
	e.Schedule(t-e.now, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports how many events remain queued.
func (e *Engine) Pending() int { return len(e.heap) + e.wheelLen }

// push queues event i, due delay cycles from now.
func (e *Engine) push(i int32, delay Cycle) {
	if delay < wheelSize {
		e.wheelPush(i)
		return
	}
	e.heapPush(i)
}

// next pops the arena index of the earliest pending event — by (time,
// schedAt, key) — advancing the clock as needed, or returns nilIdx if the
// queue is drained. Heap events at a cycle precede the cycle's wheel list
// (see the package comment).
func (e *Engine) next() int32 {
	if e.occupied != 0 {
		t := e.now + Cycle(bits.TrailingZeros64(bits.RotateLeft64(e.occupied, -int(e.now%wheelSize))))
		if len(e.heap) > 0 && e.arena[e.heap[0]].at <= t {
			return e.heapNext()
		}
		e.now = t
		return e.wheelPop(t)
	}
	if len(e.heap) > 0 {
		return e.heapNext()
	}
	return nilIdx
}

// Run dispatches events until the queue drains, Stop is called, or limit
// events have run (limit 0 means no limit). It returns the number of events
// dispatched by this call. Each event is counted under its tag and its
// slot recycled before it runs.
func (e *Engine) Run(limit uint64) uint64 {
	e.stopped = false
	var n uint64
	for !e.stopped && (limit == 0 || n < limit) {
		i := e.next()
		if i == nilIdx {
			break
		}
		ev := &e.arena[i]
		fn, call, arg := ev.fn, ev.call, ev.arg
		e.dispatched[ev.tag]++
		e.release(i)
		if call != nil {
			call(arg)
		} else {
			fn()
		}
		n++
		e.Executed++
	}
	return n
}

// wheelPush files event i, due fewer than wheelSize cycles from now, on
// its cycle's list. It walks back from the tail past the events that
// sort after it: events scheduled this same cycle with a larger key (see
// the package comment), usually none.
func (e *Engine) wheelPush(i int32) {
	ev := &e.arena[i]
	l := &e.wheel[ev.at%wheelSize]
	bit := uint64(1) << (ev.at % wheelSize)
	e.wheelLen++
	if e.occupied&bit == 0 {
		e.occupied |= bit
		ev.prev, ev.next = nilIdx, nilIdx
		l.head, l.tail = i, i
		return
	}
	after, before := nilIdx, l.tail
	for before != nilIdx {
		b := &e.arena[before]
		if b.schedAt != ev.schedAt || b.key <= ev.key {
			break
		}
		after, before = before, b.prev
	}
	ev.prev, ev.next = before, after
	if before == nilIdx {
		l.head = i
	} else {
		e.arena[before].next = i
	}
	if after == nilIdx {
		l.tail = i
	} else {
		e.arena[after].prev = i
	}
}

// wheelPop unlinks the first event of cycle t's list, which must be
// non-empty.
func (e *Engine) wheelPop(t Cycle) int32 {
	l := &e.wheel[t%wheelSize]
	i := l.head
	e.wheelLen--
	if n := e.arena[i].next; n != nilIdx {
		l.head = n
		e.arena[n].prev = nilIdx
	} else {
		e.occupied &^= uint64(1) << (t % wheelSize)
	}
	return i
}

// heapNext pops the heap's earliest event and moves the clock to it.
func (e *Engine) heapNext() int32 {
	i := e.heapPop()
	e.now = e.arena[i].at
	return i
}

// less orders arena slots by (time, schedule time, band|payload).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.schedAt != eb.schedAt {
		return ea.schedAt < eb.schedAt
	}
	return ea.key < eb.key
}

func (e *Engine) heapPush(i int32) {
	e.heap = append(e.heap, i)
	// Sift up.
	h := e.heap
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !e.less(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	// Sift down.
	h = e.heap
	p := 0
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.less(h[r], h[c]) {
			c = r
		}
		if !e.less(h[c], h[p]) {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	return top
}
