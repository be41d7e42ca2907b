package cpu

import (
	"fmt"
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
// Thread's methods must only be called from its own body, the function
// Spawn runs as the core's coroutine.
//
// Operations whose result the thread ignores — Compute, SWBackoff,
// SetPhase, Store, SyncStore, Fence, SelfInvalidate, AcquireSignature,
// ReleaseSignature and WaitDisturb — are batched: they queue locally and
// return at once. The thread yields to its core only when it needs a
// value back: in Load, SyncLoad, the read-modify-writes (CAS, FetchAdd,
// TestAndSet, Exchange) and SpinSyncLoadUntil, and in Now, Epoch and
// Flush while steps are queued. A blocking call (or a full queue) yields
// the whole queue to the core and suspends the body until the core
// resumes it with the last step's value. The core runs the queue on the
// engine side as exactly the event chain one handshake per operation
// would have produced, so simulated results are bit-identical to
// unbatched runs (see EagerOps). Each batched operation is simulated in
// program order, with its full duration: a SyncStore still completes
// only once globally visible, and the operations after it start only
// then.
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
	yield func([]step) bool // the coroutine's yield, bound by Spawn
}

// maxBatch bounds the queue: a thread that issues this many operations
// without needing a value hands them over anyway. Handing a batch over
// early is the unbatched schedule, so the bound cannot change results; it
// only keeps store-only programs and ingested traces from queueing
// without limit.
const maxBatch = 64

// queue appends a step whose result the thread ignores, handing the
// queue over when it is full (or at once under EagerOps).
func (t *Thread) queue(s step) {
	t.batch = append(t.batch, s)
	if EagerOps || len(t.batch) == maxBatch {
		t.send()
	}
}

// call appends a step whose result the thread needs and yields until it
// completes, returning its value.
func (t *Thread) call(s step) uint64 {
	t.batch = append(t.batch, s)
	return t.send()
}

// send yields the queued steps to the core and stays suspended until the
// last one completes, returning its value. The core reads the batch only
// while the thread is suspended here, so the buffer is reused afterwards.
// A thread stopped while suspended unwinds from here (see Core.Stop).
func (t *Thread) send() uint64 {
	if !t.yield(t.batch) {
		panic(stopUnwind{})
	}
	t.batch = t.batch[:0]
	return t.core.val
}

// stopUnwind is the panic value that unwinds a stopped thread's body;
// the coroutine recovers it and ends quietly.
type stopUnwind struct{}

// ThreadPanic reports a panic in a thread body. It is re-panicked on the
// engine goroutine, out of the core's resume call, so the run's owner can
// recover it and fail the run (machine.RunThreads does).
type ThreadPanic struct {
	Core  proto.CoreID
	Value any    // the body's panic value
	Stack []byte // the thread's stack at the panic
}

func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("thread on core %d panicked: %v\n%s", p.Core, p.Value, p.Stack)
}

// Flush hands any queued operations to the core and yields until they
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
// engine is suspended whenever workload code runs.)
func (t *Thread) Now() sim.Cycle {
	t.Flush()
	return t.core.eng.Now()
}

func accessStep(kind proto.AccessKind, addr proto.Addr, value uint64) step {
	return step{kind: stepAccess, acc: kind, addr: addr, value: value}
}

// Load performs a blocking data load.
func (t *Thread) Load(addr proto.Addr) uint64 {
	return t.call(accessStep(proto.DataLoad, addr, 0))
}

// Store performs a non-blocking data store: it completes after the L1
// access; the coherence transaction drains in the background (see
// Fence). Batched.
func (t *Thread) Store(addr proto.Addr, value uint64) {
	t.queue(accessStep(proto.DataStore, addr, value))
}

// SyncLoad performs a synchronization (volatile/atomic) load: sequentially
// consistent, ordered after all prior accesses (outstanding stores drain
// first: acquire/release ordering of the data-race-free model).
func (t *Thread) SyncLoad(addr proto.Addr) uint64 {
	return t.call(accessStep(proto.SyncLoad, addr, 0))
}

// SyncStore performs a synchronization store, which completes once the
// write is globally visible (write atomicity). Batched: the thread's
// later operations are simulated after it completes.
func (t *Thread) SyncStore(addr proto.Addr, value uint64) {
	t.queue(accessStep(proto.SyncStore, addr, value))
}

// rmw runs an atomic read-modify-write, returning the pre-update value.
// The operation and its operands are values in the step, so an RMW
// allocates nothing.
func (t *Thread) rmw(addr proto.Addr, op proto.RMWOp, a, b uint64) uint64 {
	return t.call(step{kind: stepAccess, acc: proto.SyncRMW, addr: addr, rmw: op, args: [2]uint64{a, b}})
}

// CAS atomically compares-and-swaps, reporting success.
func (t *Thread) CAS(addr proto.Addr, old, new uint64) bool {
	return t.rmw(addr, proto.RMWCompareAndSwap, old, new) == old
}

// FetchAdd atomically adds delta, returning the previous value.
func (t *Thread) FetchAdd(addr proto.Addr, delta uint64) uint64 {
	return t.rmw(addr, proto.RMWFetchAdd, delta, 0)
}

// TestAndSet atomically sets the word to 1, returning the previous value.
func (t *Thread) TestAndSet(addr proto.Addr) uint64 {
	return t.rmw(addr, proto.RMWTestAndSet, 0, 0)
}

// Exchange atomically swaps in value, returning the previous value.
func (t *Thread) Exchange(addr proto.Addr, value uint64) uint64 {
	return t.rmw(addr, proto.RMWExchange, value, 0)
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

// Epoch samples addr for a spin, after flushing, and returns the
// sample's number; pair it with a load and WaitDisturb to implement
// efficient spin-waiting (see proto.L1Controller). The L1 keeps one
// watch, so a new sample supersedes the previous one: wait on the latest
// sample only.
func (t *Thread) Epoch(addr proto.Addr) uint64 {
	t.Flush()
	return t.core.l1.Epoch(addr)
}

// WaitDisturb waits until the cached state of addr is disturbed by remote
// protocol activity, an eviction or a self-invalidation after sample was
// taken; at once if it already was, or if sample has been superseded. The
// wait is charged as compute: architecturally the core is spinning on
// local cache hits (the paper notes spin hits dominate compute time).
// Batched.
func (t *Thread) WaitDisturb(addr proto.Addr, sample uint64) {
	t.queue(step{kind: stepWait, addr: addr, value: sample})
}

// SpinSyncLoadUntil repeatedly sync-loads addr until pred accepts the
// value, sleeping between attempts until the local copy is disturbed.
// This is the efficient spin primitive: on MESI it models spinning on a
// cached copy until invalidation; on DeNovo it models spinning on a
// Registered word until a remote access revokes the registration.
//
// The loop — sample Epoch, SyncLoad, test pred, WaitDisturb, repeat —
// runs on the engine side as one step, so the thread yields once for the
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
