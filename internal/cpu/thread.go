package cpu

import (
	"os"

	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// RegionMapper resolves an address to its software region (the
// self-invalidation unit). The allocator implements it.
type RegionMapper interface {
	RegionOf(proto.Addr) proto.RegionID
}

// Thread is the API simulated workload code is written against. A
// Thread's methods must only be called from its own workload goroutine.
//
// Operations whose result the thread ignores — Compute, SWBackoff,
// SetPhase, Store, SyncStore, Fence, SelfInvalidate, AcquireSignature,
// ReleaseSignature and WaitDisturb — are batched: they queue locally and
// return at once. The calling goroutine blocks only when it needs a value
// back: in Load, SyncLoad, the read-modify-writes (CAS, FetchAdd,
// TestAndSet, Exchange) and SpinSyncLoadUntil, and in Now, Epoch, Flush
// and Close while steps are queued. A blocking call (or a full queue)
// hands the whole queue to the core, which runs it on the engine side as
// exactly the event chain one handshake per operation would have
// produced, so simulated results are bit-identical to unbatched runs (see
// EagerOps). Each batched operation is simulated in program order, with
// its full duration: a SyncStore still completes only once globally
// visible, and the operations after it start only then.
//
// Because of batching, native code that follows a batched operation runs
// before that operation is simulated. Such code MUST call Flush before
// natively reading or mutating simulator internals or host state shared
// across threads; see Flush.
type Thread struct {
	// ID is the thread index, equal to the core ID it runs on.
	ID int
	// RNG is the thread-private deterministic random source.
	RNG *sim.RNG

	core  *Core
	batch []step
}

// maxBatch bounds the queue: a thread that issues this many operations
// without needing a value hands them over anyway. Handing a batch over
// early is the unbatched schedule, so the bound cannot change results; it
// only keeps store-only programs and ingested traces from queueing
// without limit.
const maxBatch = 64

// NewThread binds a workload thread to core. regions may be nil if the
// workload never uses regions.
func NewThread(core *Core, regions RegionMapper, rng *sim.RNG) *Thread {
	core.regions = regions
	return &Thread{ID: int(core.id), RNG: rng, core: core}
}

// queue appends a step whose result the thread ignores, handing the
// queue over when it is full (or at once under EagerOps).
func (t *Thread) queue(s step) {
	t.batch = append(t.batch, s)
	if EagerOps || len(t.batch) == maxBatch {
		t.send()
	}
}

// call appends a step whose result the thread needs and blocks until it
// completes, returning its value.
func (t *Thread) call(s step) uint64 {
	t.batch = append(t.batch, s)
	return t.send()
}

// send hands the queued steps to the core and blocks until the last one
// completes, returning its value. The core reads the batch only while
// the thread is blocked here, so the buffer is reused afterwards.
func (t *Thread) send() uint64 {
	t.core.ops <- t.batch
	v := <-t.core.resp
	t.batch = t.batch[:0]
	return v
}

// Rendezvous performs one empty handshake with the core, blocking the
// calling goroutine until the core's cycle-0 thread-service event runs.
// The spawner calls it before the workload function so that native code
// ahead of the first blocking operation (including host-level access to
// shared simulation state like the allocator) executes serialized, in
// core order, under the engine's one-runnable-goroutine discipline —
// instead of racing across freshly spawned workload goroutines. The
// handshake schedules no events and charges no time, so the simulated
// event sequence is untouched.
func (t *Thread) Rendezvous() { t.send() }

// Flush hands any queued operations to the core and blocks until they
// have been simulated. Workload code MUST call it after a batched
// operation and before natively reading or mutating simulator internals
// (caches, the network, memory) or host state shared across threads
// (e.g. the simulated-memory allocator): the flush pins that access to
// the simulated time the program order implies, keeping the cross-thread
// interleaving of such accesses identical to an unbatched run. Blocking
// operations flush implicitly.
func (t *Thread) Flush() {
	if len(t.batch) > 0 {
		t.send()
	}
}

// Now returns the current simulated cycle, after flushing. (Safe: the
// engine is blocked whenever workload code runs.)
func (t *Thread) Now() sim.Cycle {
	t.Flush()
	return t.core.eng.Now()
}

func accessStep(kind proto.AccessKind, addr proto.Addr, value uint64, rmw proto.RMWOp) step {
	return step{kind: stepAccess, acc: kind, addr: addr, value: value, rmw: rmw}
}

// Load performs a blocking data load.
func (t *Thread) Load(addr proto.Addr) uint64 {
	return t.call(accessStep(proto.DataLoad, addr, 0, nil))
}

// Store performs a non-blocking data store: it completes after the L1
// access; the coherence transaction drains in the background (see
// Fence). Batched.
func (t *Thread) Store(addr proto.Addr, value uint64) {
	t.queue(accessStep(proto.DataStore, addr, value, nil))
}

// SyncLoad performs a synchronization (volatile/atomic) load: sequentially
// consistent, ordered after all prior accesses (outstanding stores drain
// first: acquire/release ordering of the data-race-free model).
func (t *Thread) SyncLoad(addr proto.Addr) uint64 {
	return t.call(accessStep(proto.SyncLoad, addr, 0, nil))
}

// SyncStore performs a synchronization store, which completes once the
// write is globally visible (write atomicity). Batched: the thread's
// later operations are simulated after it completes.
func (t *Thread) SyncStore(addr proto.Addr, value uint64) {
	t.queue(accessStep(proto.SyncStore, addr, value, nil))
}

// rmw runs an atomic read-modify-write, returning the pre-update value.
func (t *Thread) rmw(addr proto.Addr, op proto.RMWOp) uint64 {
	return t.call(accessStep(proto.SyncRMW, addr, 0, op))
}

// CAS atomically compares-and-swaps, reporting success.
func (t *Thread) CAS(addr proto.Addr, old, new uint64) bool {
	got := t.rmw(addr, func(cur uint64) (uint64, bool) {
		if cur == old {
			return new, true
		}
		return 0, false
	})
	return got == old
}

// FetchAdd atomically adds delta, returning the previous value.
func (t *Thread) FetchAdd(addr proto.Addr, delta uint64) uint64 {
	return t.rmw(addr, func(cur uint64) (uint64, bool) { return cur + delta, true })
}

// TestAndSet atomically sets the word to 1, returning the previous value.
func (t *Thread) TestAndSet(addr proto.Addr) uint64 {
	return t.rmw(addr, func(uint64) (uint64, bool) { return 1, true })
}

// Exchange atomically swaps in value, returning the previous value.
func (t *Thread) Exchange(addr proto.Addr, value uint64) uint64 {
	return t.rmw(addr, func(uint64) (uint64, bool) { return value, true })
}

// EagerOps disables batching, restoring the one-handshake-per-operation
// reference: every operation is handed to the core on its own, and
// SpinSyncLoadUntil runs its loop on the thread. The two modes must
// produce bit-identical simulations (TestBatchingMatchesEager checks
// this); set CPU_EAGER=1 to bisect a suspected batching bug.
var EagerOps = os.Getenv("CPU_EAGER") != ""

// Compute burns n cycles of computation (1 CPI instructions). Batched.
func (t *Thread) Compute(n sim.Cycle) {
	if n == 0 {
		return
	}
	t.queue(step{kind: stepDelay, comp: stats.Compute, n: n})
}

// SWBackoff stalls n cycles of software backoff (plotted separately).
// Batched.
func (t *Thread) SWBackoff(n sim.Cycle) {
	if n == 0 {
		return
	}
	t.queue(step{kind: stepDelay, comp: stats.SWBackoff, n: n})
}

// SelfInvalidate drops cached Valid words of the given regions (DeNovo's
// region-based static self-invalidation; a no-op on MESI). Costs one
// instruction cycle. Batched.
func (t *Thread) SelfInvalidate(set proto.RegionSet) {
	t.queue(step{kind: stepSelfInv, set: set})
}

// AcquireSignature self-invalidates cached stale data matching the
// write signature attached to lock (DeNovoND-style dynamic
// self-invalidation; a no-op on MESI). Costs one instruction cycle.
// Batched.
func (t *Thread) AcquireSignature(lock proto.Addr) {
	t.queue(step{kind: stepSigAcquire, addr: lock})
}

// ReleaseSignature publishes this core's writes-since-last-release
// signature to lock (a no-op on MESI). Costs one instruction cycle.
// Batched.
func (t *Thread) ReleaseSignature(lock proto.Addr) {
	t.queue(step{kind: stepSigRelease, addr: lock})
}

// Fence waits until all outstanding non-blocking stores have committed.
// Batched: the thread's later operations are simulated after it
// completes.
func (t *Thread) Fence() {
	t.queue(step{kind: stepFence})
}

// SetPhase switches the accounting phase (kernel / non-synch / barrier).
// Batched: the switch takes effect, in program order, in a zero-delay
// event.
func (t *Thread) SetPhase(p Phase) {
	t.queue(step{kind: stepPhase, phase: p})
}

// Epoch samples the local disturbance counter for addr, after flushing;
// pair with WaitDisturb to implement efficient spin-waiting.
func (t *Thread) Epoch(addr proto.Addr) uint64 {
	t.Flush()
	return t.core.l1.Epoch(addr)
}

// WaitDisturb waits until the cached state of addr's word is disturbed by
// remote protocol activity (epoch advances past the sampled epoch). The
// wait is charged as compute: architecturally the core is spinning on
// local cache hits (the paper notes spin hits dominate compute time).
// Batched.
func (t *Thread) WaitDisturb(addr proto.Addr, epoch uint64) {
	t.queue(step{kind: stepWait, addr: addr, value: epoch})
}

// SpinSyncLoadUntil repeatedly sync-loads addr until pred accepts the
// value, sleeping between attempts until the local copy is disturbed.
// This is the efficient spin primitive: on MESI it models spinning on a
// cached copy until invalidation; on DeNovo it models spinning on a
// Registered word until a remote access revokes the registration.
//
// The loop — sample Epoch, SyncLoad, test pred, WaitDisturb, repeat —
// runs on the engine side as one step, so the thread blocks once for the
// whole spin. pred therefore runs on the engine goroutine and must be a
// pure function of the loaded value: no side effects, no reads of state
// that other threads change.
func (t *Thread) SpinSyncLoadUntil(addr proto.Addr, pred func(uint64) bool) uint64 {
	if EagerOps {
		for {
			e := t.Epoch(addr)
			v := t.SyncLoad(addr)
			if pred(v) {
				return v
			}
			t.WaitDisturb(addr, e)
		}
	}
	return t.call(step{kind: stepSpin, acc: proto.SyncLoad, addr: addr, pred: pred})
}

// Close ends the thread: queued operations play out, then the core
// observes the closed op channel and records its finish time. Deferred by
// the machine around the workload body; workload code never calls it.
func (t *Thread) Close() {
	t.Flush()
	close(t.core.ops)
}
