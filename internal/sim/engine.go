// Package sim provides the discrete-event simulation engine that drives
// every other component of the simulator: the network, the caches, the
// protocol controllers, and the cores.
//
// One single-threaded engine drives a whole machine. All simulated
// concurrency is expressed as events on a priority queue ordered by the
// key
//
//	(at, schedAt, band|payload)
//
// where at is the dispatch cycle, schedAt the cycle the event was created,
// and the final word breaks remaining ties: locally scheduled events
// (band 0) carry the engine's own sequence number — FIFO by schedule
// order — and cross-router message arrivals (band 1, see
// ScheduleArrivalAt) carry (source node, per-source message counter). The
// arrival band is what orders same-cycle arrivals in every golden and
// digest recorded so far, so it stays even though one engine could order
// them by sequence number alone: switching would reorder those arrivals
// and move every recorded result.
//
// Internally the queue is allocation-free on the hot path: events live in
// a pooled arena recycled through a free list, the priority queue is an
// index-based binary heap (no interface boxing, 4-byte swaps), and
// zero-delay events — the most common kind, from completion callbacks and
// wakeups — bypass the heap entirely through a same-cycle FIFO ring.
// Dispatch order is a linearization of the key order: every ring event was
// scheduled while the clock already stood at its cycle (schedAt = at =
// now), so it sorts after every heap event for that cycle, all of which
// were created earlier (schedAt < now).
//
// Events are typed, so that hot paths schedule without allocating. An
// event runs either a func() or a func(uint64) with an argument
// (ScheduleCall): a caller holding a continuation bound once at
// construction passes it with its value instead of wrapping both in a
// fresh closure. An event may also carry a small Tag, and the engine
// counts dispatched events per tag (Dispatched); the network tags each
// delivery with its message class, which makes in-flight accounting a
// subtraction rather than a wrapper closure per message. Neither the
// payload form nor the tag affects ordering: every schedule consumes
// exactly one sequence number, whatever its form.
package sim

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// event is work scheduled to run at a particular cycle: fn(), or
// call(arg) when call is set. schedAt and key order same-cycle events
// deterministically (see the package comment). Events are pooled: next
// links free arena slots.
type event struct {
	at      Cycle
	schedAt Cycle
	key     uint64
	fn      func()
	call    func(uint64)
	arg     uint64
	tag     Tag
	next    int32 // free-list link; -1 terminates
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

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	arena []event // pooled event storage
	free  int32   // head of the free list into arena
	heap  []int32 // binary heap of arena indices, ordered by (at, schedAt, key)

	// ring is the same-cycle fast path: a circular FIFO of arena indices
	// for events scheduled with zero delay. All ring events are at e.now.
	ring     []int32
	ringHead int
	ringLen  int

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

// alloc takes an arena slot from the free list (or grows the arena) and
// sets its ordering key; the caller sets the payload and tag.
func (e *Engine) alloc(at, schedAt Cycle, key uint64) int32 {
	if i := e.free; i != nilIdx {
		ev := &e.arena[i]
		e.free = ev.next
		ev.at, ev.schedAt, ev.key = at, schedAt, key
		return i
	}
	e.arena = append(e.arena, event{at: at, schedAt: schedAt, key: key})
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

// ScheduleTagged is Schedule for an event counted under tag when it
// dispatches (see Dispatched).
func (e *Engine) ScheduleTagged(delay Cycle, tag Tag, fn func()) {
	checkTag(tag)
	e.schedule(delay, fn, nil, 0, tag)
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
	i := e.alloc(e.now+delay, e.now, e.seq)
	ev := &e.arena[i]
	ev.fn, ev.call, ev.arg, ev.tag = fn, call, arg, tag
	if delay == 0 {
		e.ringPush(i)
		return
	}
	e.heapPush(i)
}

func checkTag(tag Tag) {
	if tag >= NumTags {
		panic("sim: event tag out of range")
	}
}

// ScheduleArrivalAt enqueues a cross-router message arrival: fn runs at
// the absolute cycle at, ordered against all other events by (at,
// schedAt, src, ctr) rather than by sequence number. schedAt is the cycle
// the message was sent (strictly before at: cross-router latency is at
// least one cycle), src the sending node, and ctr the sender's running
// arrival counter. The key is kept because the recorded goldens and
// digests were produced under it (see the package comment). The arrival
// counts under tag when it dispatches.
func (e *Engine) ScheduleArrivalAt(at, schedAt Cycle, src uint32, ctr uint64, tag Tag, fn func()) {
	if fn == nil {
		panic("sim: ScheduleArrivalAt with nil fn")
	}
	if at < e.now {
		panic("sim: arrival scheduled in the past")
	}
	if ctr >= 1<<arrivalCtrBits {
		panic("sim: arrival counter overflow")
	}
	checkTag(tag)
	key := arrivalBand | uint64(src)<<arrivalCtrBits | ctr
	i := e.alloc(at, schedAt, key)
	ev := &e.arena[i]
	ev.fn, ev.tag = fn, tag
	e.heapPush(i)
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
func (e *Engine) Pending() int { return len(e.heap) + e.ringLen }

// next pops the arena index of the earliest pending event — by (time,
// schedAt, key) — advancing the clock as needed, or returns nilIdx if the
// queue is drained. Heap events at the current cycle precede the ring
// (they were scheduled before the clock reached this cycle, so their
// schedAt is lower).
func (e *Engine) next() int32 {
	if len(e.heap) > 0 && e.arena[e.heap[0]].at == e.now {
		return e.heapPop()
	}
	if e.ringLen > 0 {
		return e.ringPop()
	}
	if len(e.heap) > 0 {
		i := e.heapPop()
		e.now = e.arena[i].at
		return i
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

// ringPush appends i to the same-cycle FIFO, growing it when full.
func (e *Engine) ringPush(i int32) {
	if e.ringLen == len(e.ring) {
		grown := make([]int32, maxInt(len(e.ring)*2, 16))
		for k := 0; k < e.ringLen; k++ {
			grown[k] = e.ring[(e.ringHead+k)%len(e.ring)]
		}
		e.ring = grown
		e.ringHead = 0
	}
	e.ring[(e.ringHead+e.ringLen)%len(e.ring)] = i
	e.ringLen++
}

func (e *Engine) ringPop() int32 {
	i := e.ring[e.ringHead]
	e.ringHead = (e.ringHead + 1) % len(e.ring)
	e.ringLen--
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
