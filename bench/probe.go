package main

import "time"

// The host-speed probe. Other tenants of a shared host slow the
// simulator by up to 80% for stretches of seconds to minutes, longer than
// a whole run. The slowdown shows in CPU time as well as wall time, so no
// clock excludes it. Each run of a cell is therefore preceded by the
// probe, a fixed miniature of the simulator's hot loop that shares no
// code with it, and the run's times are scaled by probeRef over the
// probe's time. The probe's time moves with the host, never with the
// commit under test.
//
// probeRef is the probe's time on the 2-CPU host described in README.md
// when it was quiet. It only sets the unit: a scaled time reads as the
// seconds the run would have taken on that host.
const probeRef = 25 * time.Millisecond

const (
	probeEvents  = 40000
	probeThreads = 16
	probeLines   = 8192
)

type probeEvent struct {
	at, seq, addr uint64
	thread        int
}

type probeLine struct {
	owner int
	value uint64
}

// hostProbe runs the probe and returns how long it took. It has the
// simulator's mix of work: an event heap, a map of line states, a small
// allocation per event, and a channel handoff to one of probeThreads
// goroutines and back per event.
func hostProbe() time.Duration {
	start := time.Now()
	var heap []*probeEvent
	var seq uint64
	less := func(a, b *probeEvent) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }
	push := func(e *probeEvent) {
		seq++
		e.seq = seq
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() *probeEvent {
		e := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			m := i
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < len(heap) && less(heap[c], heap[m]) {
					m = c
				}
			}
			if m == i {
				return e
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}

	lines := make(map[uint64]*probeLine, probeLines)
	requests := make([]chan uint64, probeThreads)
	replies := make(chan uint64)
	for t := range requests {
		requests[t] = make(chan uint64)
		go func(in <-chan uint64, x uint64) {
			for a := range in {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				replies <- x ^ a
			}
		}(requests[t], uint64(t)*0x9E3779B97F4A7C15+1)
		push(&probeEvent{at: uint64(t), thread: t})
	}
	for i := 0; i < probeEvents; i++ {
		e := pop()
		l := lines[e.addr]
		if l == nil {
			l = &probeLine{}
			lines[e.addr] = l
		}
		l.owner = e.thread
		l.value++
		requests[e.thread] <- e.addr + l.value
		r := <-replies
		push(&probeEvent{at: e.at + 1 + r%17, thread: e.thread, addr: r % probeLines * 64})
	}
	for _, in := range requests {
		close(in)
	}
	return time.Since(start)
}
