package sim

import "testing"

// orderDelays are the delays an ordering program draws from: both sides
// of the wheel bound (wheelSize = 64) and far ahead. A draw of 1000 adds
// a multiple of 37 so far events spread over many cycles.
var orderDelays = [...]Cycle{0, 1, 62, 63, 64, 65, 1000}

// orderSources is the number of arrival sources a program sends from.
const orderSources = 4

// stamp is an event's ordering key.
type stamp struct {
	at, schedAt Cycle
	key         uint64
}

func (a stamp) less(b stamp) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.key < b.key
}

// orderRun drives an engine from a program, a byte string that the
// dispatched events read in turn: each decides whether to Stop the run
// and how many children to schedule, and each child's scheduling call
// and delay. It records every event's expected key when it is scheduled
// — band-0 keys from TraceSchedule, arrival keys from (src, ctr) — and
// checks each dispatch against it.
type orderRun struct {
	t    testing.TB
	e    *Engine
	prog []byte
	pos  int

	want        []stamp // by event id
	done        []bool
	last        stamp // key of the last dispatched event
	outstanding int   // scheduled, not yet dispatched
	ctr         [orderSources]uint64
	seq         uint64 // the sequence number of the last band-0 schedule
	tagged      [NumTags]uint64
	call        func(uint64) // dispatch, bound once
}

// read returns the program's next byte, or false once it is exhausted.
func (r *orderRun) read() (byte, bool) {
	if r.pos >= len(r.prog) {
		return 0, false
	}
	r.pos++
	return r.prog[r.pos-1], true
}

// checkPending fails unless the engine's Pending matches the model.
func (r *orderRun) checkPending(where string) {
	if p := r.e.Pending(); p != r.outstanding {
		r.t.Fatalf("%s: Pending() = %d, want %d outstanding", where, p, r.outstanding)
	}
}

// dispatch is every event's body: it checks the event against its
// expected key and the previous dispatch, then runs the program.
func (r *orderRun) dispatch(id uint64) {
	w := r.want[id]
	if r.done[id] {
		r.t.Fatalf("event %d %+v dispatched twice", id, w)
	}
	r.done[id] = true
	r.outstanding--
	if now := r.e.Now(); now != w.at {
		r.t.Fatalf("event %d %+v dispatched at cycle %d", id, w, now)
	}
	if w.less(r.last) {
		r.t.Fatalf("event %d %+v dispatched after %+v", id, w, r.last)
	}
	r.last = w
	r.checkPending("dispatch")
	op, ok := r.read()
	if !ok {
		return
	}
	if op&0x80 != 0 {
		r.e.Stop()
	}
	for i := byte(0); i < op%4; i++ {
		r.spawn()
	}
}

// spawn schedules one child, or a burst of arrivals, as the next two
// program bytes say.
func (r *orderRun) spawn() {
	kind, ok1 := r.read()
	db, ok2 := r.read()
	if !ok1 || !ok2 {
		return
	}
	d := orderDelays[int(db)%len(orderDelays)]
	if d == 1000 {
		d += Cycle(db>>3) * 37
	}
	now := r.e.Now()
	local := func(schedule func(id uint64)) {
		id := r.add(stamp{at: now + d, schedAt: now})
		schedule(id)
		r.want[id].key = r.seq
	}
	switch kind % 6 {
	case 0:
		local(func(id uint64) { r.e.Schedule(d, func() { r.dispatch(id) }) })
	case 1:
		local(func(id uint64) { r.e.ScheduleCall(d, r.call, id) })
	case 2:
		tag := Tag(kind>>3) % NumTags
		r.tagged[tag]++
		local(func(id uint64) { r.e.ScheduleTagged(d, tag, r.call, id) })
	case 3:
		local(func(id uint64) { r.e.At(now+d, func() { r.dispatch(id) }) })
	case 4:
		r.arrive(int(kind>>3)%orderSources, d)
	case 5:
		// Same-cycle arrivals from every source in descending (src, ctr)
		// order: each must be moved ahead of the ones sent before it.
		for src := orderSources - 1; src >= 0; src-- {
			r.arrive(src, d)
		}
	}
	r.checkPending("schedule")
}

// arrive sends an arrival from src, due d cycles from now; a delay of 0
// becomes 1, the least cross-router latency.
func (r *orderRun) arrive(src int, d Cycle) {
	if d == 0 {
		d = 1
	}
	now := r.e.Now()
	ctr := r.ctr[src]
	r.ctr[src]++
	id := r.add(stamp{at: now + d, schedAt: now, key: arrivalBand | uint64(src)<<arrivalCtrBits | ctr})
	r.e.ScheduleArrivalAt(now+d, uint32(src), ctr, 0, r.call, id)
}

// add registers a new event with its expected key and returns its id.
func (r *orderRun) add(s stamp) uint64 {
	r.want = append(r.want, s)
	r.done = append(r.done, false)
	r.outstanding++
	return uint64(len(r.want) - 1)
}

// checkEngineOrder runs prog: a few root events scheduled from outside
// the engine, then Run with program-chosen limits — interrupted also by
// the events' Stops — until the queue drains. Every event must dispatch
// exactly once, at its cycle, in nondecreasing (at, schedAt, key) order,
// with Pending equal to the events outstanding throughout.
func checkEngineOrder(t testing.TB, prog []byte) {
	r := &orderRun{t: t, e: NewEngine(), prog: prog}
	r.call = r.dispatch
	TraceSchedule = func(_, _ Cycle, seq uint64) { r.seq = seq }
	defer func() { TraceSchedule = nil }()
	if n, ok := r.read(); ok {
		for i := byte(0); i <= n%4; i++ {
			r.spawn()
		}
	}
	for r.e.Pending() > 0 {
		var limit uint64
		if b, ok := r.read(); ok && b%2 == 1 {
			limit = uint64(b >> 1 % 16)
		}
		r.e.Run(limit)
		r.checkPending("Run returned")
	}
	for id, ok := range r.done {
		if !ok {
			t.Fatalf("event %d %+v never dispatched", id, r.want[id])
		}
	}
	for tag, n := range r.tagged {
		if tag > 0 && r.e.Dispatched(Tag(tag)) != n {
			t.Fatalf("tag %d dispatched %d times, want %d", tag, r.e.Dispatched(Tag(tag)), n)
		}
	}
}

// orderProgram returns a seeded random program of n bytes.
func orderProgram(seed uint64, n int) []byte {
	rng := NewRNG(seed)
	prog := make([]byte, n)
	for i := range prog {
		prog[i] = byte(rng.Uint64())
	}
	return prog
}

// orderSeeds are hand-written programs: every scheduling call at every
// delay class from one root, and an arrival burst beside band-0 events
// for the same cycle.
var orderSeeds = [][]byte{
	{3, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 3, 0, 6, 1, 6, 2, 3},
	{0, 5, 1, 3, 0, 1, 1, 1, 5, 1, 0x83, 4, 1, 12, 1, 0, 1, 3, 3},
	{2, 5, 2, 5, 3, 0, 2, 0x82, 5, 6, 1, 6, 3, 4, 5, 2, 6, 0x81, 5, 5},
}

// TestEngineOrder checks the dispatch order over seeded random programs
// and the hand-written seeds.
func TestEngineOrder(t *testing.T) {
	for _, prog := range orderSeeds {
		checkEngineOrder(t, prog)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		checkEngineOrder(t, orderProgram(seed, 64+int(seed%8)*64))
	}
}

// FuzzEngineOrder is TestEngineOrder's check over fuzzer-chosen programs;
// its seed corpus runs under go test.
func FuzzEngineOrder(f *testing.F) {
	for _, prog := range orderSeeds {
		f.Add(prog)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(orderProgram(seed, 256))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkEngineOrder(t, prog)
	})
}
