// Package cpu models the simulated cores and the thread API that workloads
// are written against.
//
// The paper's core model (§5.1): simple, single-issue, in-order, 1 CPI for
// non-memory instructions, blocking loads, non-blocking stores;
// synchronization accesses obey program order (a sync access is not issued
// until the previous one completes).
//
// Each simulated thread is an ordinary Go function running on its own
// goroutine, coroutined with the single-threaded simulation engine through
// a strict channel handshake: the engine blocks while the thread decides
// its next operations, and the thread blocks while the engine simulates
// them. Exactly one of the two is ever runnable, so simulation remains
// deterministic and race-free. The thread queues every operation whose
// result it ignores and hands the queue over, as one batch of steps,
// only when it needs a value back; the core interprets the batch on the
// engine side (see Thread).
package cpu

import (
	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// Phase labels what part of the workload is executing, driving the
// execution-time breakdown of Figures 3–6: kernel code, the dummy
// computation between kernel iterations, or the closing barrier.
type Phase int

const (
	PhaseKernel Phase = iota
	PhaseNonSynch
	PhaseBarrier
)

func (p Phase) String() string {
	switch p {
	case PhaseKernel:
		return "kernel"
	case PhaseNonSynch:
		return "nonsynch"
	case PhaseBarrier:
		return "barrier"
	default:
		panic("cpu: unknown phase")
	}
}

// stepKind says what one thread operation does on the engine side.
type stepKind uint8

const (
	stepDelay      stepKind = iota // Compute/SWBackoff: advance n cycles
	stepPhase                      // SetPhase
	stepAccess                     // Load/Store/SyncLoad/SyncStore/RMW
	stepFence                      // wait for outstanding stores to drain
	stepSelfInv                    // region self-invalidation
	stepSigAcquire                 // signature self-invalidation
	stepSigRelease                 // signature publication
	stepWait                       // WaitDisturb
	stepSpin                       // SpinSyncLoadUntil: epoch, SyncLoad, pred, WaitDisturb
)

// step is one thread operation, queued by the thread and interpreted by
// the core on the engine goroutine.
type step struct {
	kind  stepKind
	acc   proto.AccessKind    // stepAccess, stepSpin
	comp  stats.TimeComponent // stepDelay
	phase Phase               // stepPhase
	n     sim.Cycle           // stepDelay
	addr  proto.Addr
	value uint64          // store value (stepAccess), sampled epoch (stepWait)
	set   proto.RegionSet // stepSelfInv
	rmw   proto.RMWOp
	pred  func(uint64) bool // stepSpin
}

// isTime reports whether the step only advances time (and so does not
// count toward Retired).
func (s *step) isTime() bool { return s.kind == stepDelay || s.kind == stepPhase }

// Core is one simulated processor.
type Core struct {
	eng     *sim.Engine
	id      proto.CoreID
	l1      proto.L1Controller
	regions RegionMapper

	ops  chan []step
	resp chan uint64

	// Interpreter state: the batch being run, the index of the step in
	// flight, and that step's start cycle, backoff baseline and sampled
	// epoch. At most one step per core is ever in flight.
	batch []step
	pc    int
	start sim.Cycle
	b0    sim.Cycle
	epoch uint64

	// Continuations, bound once so that running a step allocates nothing
	// beyond its proto.Request.
	issueFn, finishFn func()
	accessDoneFn      func(uint64)

	phase    Phase
	time     stats.CoreTime
	retired  uint64
	finished bool
	onFinish func()
}

// NewCore builds core id over l1. onFinish runs when the thread ends.
func NewCore(eng *sim.Engine, id proto.CoreID, l1 proto.L1Controller, onFinish func()) *Core {
	c := &Core{
		eng:      eng,
		id:       id,
		l1:       l1,
		ops:      make(chan []step),
		resp:     make(chan uint64),
		onFinish: onFinish,
	}
	c.issueFn, c.finishFn, c.accessDoneFn = c.issue, c.finish, c.accessDone
	return c
}

// ID returns the core's ID.
func (c *Core) ID() proto.CoreID { return c.id }

// L1 returns the core's cache controller.
func (c *Core) L1() proto.L1Controller { return c.l1 }

// Time returns the core's accumulated cycle breakdown.
func (c *Core) Time() stats.CoreTime { return c.time }

// Finished reports whether the thread has ended.
func (c *Core) Finished() bool { return c.finished }

// Phase returns the core's current workload phase.
func (c *Core) Phase() Phase { return c.phase }

// Retired counts the thread's completed operations other than the pure
// time steps (Compute, SWBackoff, SetPhase): one per memory access,
// fence, self-invalidation, signature operation and WaitDisturb, and, in
// SpinSyncLoadUntil, one per load and one per wait between loads. It is the
// progress signal the deadlock/livelock watchdog monitors. It counts
// steps as they complete, never handshakes, so it is the same whether
// or not the thread batches, and it advances through a long batch of
// operations that return no value.
func (c *Core) Retired() uint64 { return c.retired }

// Start schedules the core's first service of its thread at cycle 0.
func (c *Core) Start() {
	c.eng.Schedule(0, c.serviceThread)
}

// serviceThread blocks the engine until the thread hands over its next
// batch of steps (or ends), then starts the batch. The thread is
// guaranteed to be either computing natively (and will promptly send) or
// already blocked sending.
func (c *Core) serviceThread() {
	b, ok := <-c.ops
	if !ok {
		c.finished = true
		c.time.Finish = c.eng.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
		return
	}
	c.batch, c.pc = b, 0
	c.run(0)
}

// run starts the step at c.pc. Once the batch is exhausted it hands v,
// the last step's result, back to the thread and waits for the next
// batch. Each step starts inside its predecessor's completion callback —
// where the thread, had it sent that step on its own, would have issued
// it — so the schedule-call sequence, and with it every simulated
// result, is the same however the thread's steps are batched.
func (c *Core) run(v uint64) {
	if c.pc == len(c.batch) {
		c.batch = nil
		c.resp <- v
		c.serviceThread()
		return
	}
	s := &c.batch[c.pc]
	switch s.kind {
	case stepDelay:
		c.eng.Schedule(s.n, c.finishFn)
	case stepPhase:
		c.eng.Schedule(0, c.finishFn)
	case stepAccess:
		c.start, c.b0 = c.eng.Now(), c.l1.BackoffStallCycles()
		if s.acc.IsSync() {
			// Sync accesses first drain outstanding stores (fence
			// semantics of the data-race-free model).
			c.l1.OnWritesDrained(c.issueFn)
		} else {
			c.issue()
		}
	case stepFence:
		c.start = c.eng.Now()
		c.l1.OnWritesDrained(c.finishFn)
	case stepSelfInv:
		c.l1.SelfInvalidate(s.set)
		c.eng.Schedule(1, c.finishFn)
	case stepSigAcquire:
		c.l1.SignatureAcquire(s.addr)
		c.eng.Schedule(1, c.finishFn)
	case stepSigRelease:
		c.l1.SignatureRelease(s.addr)
		c.eng.Schedule(1, c.finishFn)
	case stepWait:
		c.start = c.eng.Now()
		c.l1.WaitDisturb(s.addr, s.value, c.finishFn)
	case stepSpin:
		c.epoch = c.l1.Epoch(s.addr)
		c.start, c.b0 = c.eng.Now(), c.l1.BackoffStallCycles()
		c.l1.OnWritesDrained(c.issueFn)
	default:
		panic("cpu: unknown step kind")
	}
}

// next ends the step in flight with result v and starts its successor.
func (c *Core) next(v uint64) {
	if !c.batch[c.pc].isTime() {
		c.retired++
	}
	c.pc++
	c.run(v)
}

// issue hands the in-flight access (or spin load) to the L1.
func (c *Core) issue() {
	s := &c.batch[c.pc]
	c.l1.Access(&proto.Request{
		Kind:   s.acc,
		Addr:   s.addr,
		Value:  s.value,
		RMW:    s.rmw,
		Region: c.regionOf(s.addr),
		Done:   c.accessDoneFn,
	})
}

func (c *Core) regionOf(addr proto.Addr) proto.RegionID {
	if c.regions == nil {
		return 0
	}
	return c.regions.RegionOf(addr)
}

// accessDone ends an access with its value. A spin whose predicate rejects
// the value instead sleeps until the word is disturbed past the epoch
// sampled before the load.
func (c *Core) accessDone(v uint64) {
	c.chargeAccess(c.eng.Now()-c.start, c.l1.BackoffStallCycles()-c.b0)
	s := &c.batch[c.pc]
	if s.kind == stepSpin && !s.pred(v) {
		c.retired++ // the load; finish retires the wait
		c.start = c.eng.Now()
		c.l1.WaitDisturb(s.addr, c.epoch, c.finishFn)
		return
	}
	c.next(v)
}

// finish ends every step but an access: it charges the step's cycles and
// starts the next step, or, after a spin's wait, the spin's next
// iteration.
func (c *Core) finish() {
	s := &c.batch[c.pc]
	switch s.kind {
	case stepDelay:
		c.charge(s.comp, s.n)
	case stepPhase:
		c.phase = s.phase
	case stepFence:
		c.charge(stats.MemStall, c.eng.Now()-c.start)
	case stepSelfInv, stepSigAcquire, stepSigRelease:
		c.charge(stats.Compute, 1)
	case stepWait, stepSpin:
		// A wait is charged as compute: architecturally the core is
		// spinning on local cache hits.
		c.charge(stats.Compute, c.eng.Now()-c.start)
		if s.kind == stepSpin {
			c.retired++
			c.run(0)
			return
		}
	default:
		panic("cpu: finish of an access step")
	}
	c.next(0)
}

// charge attributes n cycles to component comp, redirected by the current
// phase: everything in the non-synch phase lands in NonSynch, and in the
// barrier phase all waiting lands in BarrierStall. Hardware and software
// backoff keep their own buckets in the kernel phase (the paper plots them
// separately).
func (c *Core) charge(comp stats.TimeComponent, n sim.Cycle) {
	if n == 0 {
		return
	}
	switch c.phase {
	case PhaseNonSynch:
		comp = stats.NonSynch
	case PhaseBarrier:
		if comp != stats.HWBackoff && comp != stats.SWBackoff {
			comp = stats.BarrierStall
		}
	}
	c.time.Add(comp, n)
}

// chargeAccess splits a memory access's duration: one L1-access cycle as
// compute (instruction issue), hardware-backoff stall in its own bucket,
// and the rest as memory stall.
func (c *Core) chargeAccess(dur, hwBackoff sim.Cycle) {
	issue := sim.Cycle(1)
	if dur < issue {
		issue = dur
	}
	c.charge(stats.Compute, issue)
	dur -= issue
	if hwBackoff > dur {
		hwBackoff = dur
	}
	c.charge(stats.HWBackoff, hwBackoff)
	c.charge(stats.MemStall, dur-hwBackoff)
}
