// Package denovosync is a Go reproduction of the system described in
// Sung & Adve, "DeNovoSync: Efficient Support for Arbitrary
// Synchronization without Writer-Initiated Invalidations" (ASPLOS 2015).
//
// It provides an execution-driven multicore memory-system simulator —
// in-order cores, private L1s, a shared NUCA L2, a 2D-mesh interconnect
// and DRAM controllers — with three coherence protocols:
//
//   - MESI: the writer-initiated-invalidation baseline (full-map
//     directory, blocking ownership transactions).
//   - DeNovoSync0: DeNovo word-granularity coherence where
//     synchronization reads register at the LLC (the single-reader rule).
//   - DeNovoSync: DeNovoSync0 plus the adaptive hardware backoff.
//
// Workloads are plain Go functions written against the Thread API
// (Load/Store, SyncLoad/SyncStore/CAS/FetchAdd, Compute, region-based
// SelfInvalidate). The library ships the paper's full evaluation: 24
// synchronization kernels, 13 application models, and Reproduce, which
// regenerates every figure of the evaluation section and each ablation
// study.
//
// Quick start:
//
//	space := denovosync.NewSpace()
//	flag := space.AllocPadded(space.Region("sync"))
//	m := denovosync.NewMachine(denovosync.Params16(), denovosync.DeNovoSync, space)
//	rs, err := m.Run("handoff", func(t *denovosync.Thread) {
//	    if t.ID == 0 {
//	        t.SyncStore(flag, 1)
//	    } else if t.ID == 1 {
//	        t.SpinSyncLoadUntil(flag, func(v uint64) bool { return v == 1 })
//	    }
//	})
package denovosync

import (
	"io"

	"denovosync/internal/alloc"
	"denovosync/internal/apps"
	"denovosync/internal/barrier"
	"denovosync/internal/cpu"
	"denovosync/internal/exp"
	"denovosync/internal/harness"
	"denovosync/internal/kernels"
	"denovosync/internal/lockfree"
	"denovosync/internal/locks"
	"denovosync/internal/machine"
	"denovosync/internal/mem"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// Core simulator types.
type (
	// Machine is an assembled simulated system (cores, caches, L2,
	// network, memory) for one protocol. Machines are single-use: build,
	// Run once, read stats.
	Machine = machine.Machine
	// Params is the machine configuration (Table 1 of the paper).
	Params = machine.Params
	// Protocol selects MESI, DeNovoSync0 or DeNovoSync.
	Protocol = machine.Protocol
	// Workload is the per-thread body of a simulated program.
	Workload = machine.Workload
	// Thread is the API workload code is written against.
	Thread = cpu.Thread
	// Phase labels execution-time accounting (kernel/non-synch/barrier).
	Phase = cpu.Phase
	// RunStats is the result of one run: makespan, per-component cycle
	// breakdown, and per-class network traffic.
	RunStats = stats.RunStats
	// Cycle is simulated time in core clock cycles.
	Cycle = sim.Cycle
	// Addr is a simulated memory address.
	Addr = proto.Addr
	// RegionID names a software data region (self-invalidation unit).
	RegionID = proto.RegionID
	// RegionSet is a set of regions passed to SelfInvalidate.
	RegionSet = proto.RegionSet
	// Space is the simulated shared-memory allocator and region map.
	Space = alloc.Space
	// MemStore is the committed-value memory image (for pre-initializing
	// data structures and checking results).
	MemStore = mem.Store
	// MsgClass buckets network messages for traffic accounting.
	MsgClass = proto.MsgClass
)

// AllMsgClasses selects every traffic class when tracing.
const AllMsgClasses = proto.NumMsgClasses

// Protocols.
const (
	MESI        = machine.MESI
	DeNovoSync0 = machine.DeNovoSync0
	DeNovoSync  = machine.DeNovoSync
)

// Accounting phases.
const (
	PhaseKernel   = cpu.PhaseKernel
	PhaseNonSynch = cpu.PhaseNonSynch
	PhaseBarrier  = cpu.PhaseBarrier
)

// Params16 returns the paper's 16-core configuration (Table 1).
func Params16() Params { return machine.Params16() }

// Params64 returns the paper's 64-core configuration (Table 1).
func Params64() Params { return machine.Params64() }

// NewSpace creates an empty simulated address space.
func NewSpace() *Space { return alloc.New() }

// NewMachine assembles a machine over space with the given protocol.
func NewMachine(p Params, prot Protocol, space *Space) *Machine {
	return machine.New(p, prot, space)
}

// NewRegionSet builds a region set for SelfInvalidate.
func NewRegionSet(rs ...RegionID) RegionSet { return proto.NewRegionSet(rs...) }

// Synchronization library (the algorithms evaluated in the paper).
type (
	// Lock is the common lock interface (TATAS and array locks).
	Lock = locks.Lock
	// TATASLock is a Test-and-Test-and-Set spin lock.
	TATASLock = locks.TATAS
	// ArrayLock is an Anderson-style array queuing lock.
	ArrayLock = locks.Array
	// MCSLock is the Mellor-Crummey-Scott list-based queuing lock.
	MCSLock = locks.MCS
	// Barrier is the common barrier interface.
	Barrier = barrier.Barrier
	// TreeBarrier is a static tree barrier (configurable fan-in/out).
	TreeBarrier = barrier.Tree
	// CentralBarrier is a centralized sense-reversing barrier.
	CentralBarrier = barrier.Central
	// DisseminationBarrier is the log-round dissemination barrier.
	DisseminationBarrier = barrier.Dissemination
	// MSQueue is the Michael-Scott non-blocking queue.
	MSQueue = lockfree.MSQueue
	// PLJQueue is the Prakash-Lee-Johnson counted-pointer queue.
	PLJQueue = lockfree.PLJQueue
	// TreiberStack is Treiber's non-blocking stack.
	TreiberStack = lockfree.TreiberStack
	// HerlihyStack is Herlihy's small-object-copy stack.
	HerlihyStack = lockfree.HerlihyStack
	// HerlihyHeap is Herlihy's small-object-copy priority queue.
	HerlihyHeap = lockfree.HerlihyHeap
	// FAICounter is a fetch-and-increment counter.
	FAICounter = lockfree.FAICounter
)

// NewTATASLock allocates a TATAS lock whose critical sections protect the
// given regions (self-invalidated at acquire on DeNovo). padded places the
// lock word on its own cache line.
func NewTATASLock(s *Space, region RegionID, protect RegionSet, padded bool) *TATASLock {
	return locks.NewTATAS(s, region, protect, padded)
}

// NewArrayLock allocates an n-slot array queuing lock. Write 1 to
// SlotAddr(0) in the machine's MemStore before running (or call Init from
// one thread).
func NewArrayLock(s *Space, region RegionID, protect RegionSet, n int) *ArrayLock {
	return locks.NewArray(s, region, protect, n)
}

// NewMCSLock allocates an MCS list-based queuing lock for up to n threads.
func NewMCSLock(s *Space, region RegionID, protect RegionSet, n int) *MCSLock {
	return locks.NewMCS(s, region, protect, n)
}

// NewDisseminationBarrier allocates a dissemination barrier for n threads.
func NewDisseminationBarrier(s *Space, region RegionID, protect RegionSet, n int) *DisseminationBarrier {
	return barrier.NewDissemination(s, region, protect, n)
}

// NewTreeBarrier allocates a static tree barrier for n threads.
func NewTreeBarrier(s *Space, region RegionID, protect RegionSet, n, fanIn, fanOut int) *TreeBarrier {
	return barrier.NewTree(s, region, protect, n, fanIn, fanOut)
}

// NewCentralBarrier allocates a centralized sense-reversing barrier.
func NewCentralBarrier(s *Space, region RegionID, protect RegionSet, n int) *CentralBarrier {
	return barrier.NewCentral(s, region, protect, n)
}

// NewMSQueue allocates a Michael-Scott queue (dummy node pre-initialized
// in st).
func NewMSQueue(s *Space, st *MemStore) *MSQueue { return lockfree.NewMSQueue(s, st) }

// NewPLJQueue allocates a PLJ counted-pointer queue.
func NewPLJQueue(s *Space, st *MemStore) *PLJQueue { return lockfree.NewPLJQueue(s, st) }

// NewTreiberStack allocates a Treiber stack.
func NewTreiberStack(s *Space, st *MemStore) *TreiberStack { return lockfree.NewTreiberStack(s, st) }

// NewHerlihyStack allocates a Herlihy small-object-copy stack.
func NewHerlihyStack(s *Space, st *MemStore, capacity int) *HerlihyStack {
	return lockfree.NewHerlihyStack(s, st, capacity)
}

// NewHerlihyHeap allocates a Herlihy small-object-copy heap.
func NewHerlihyHeap(s *Space, st *MemStore, capacity int) *HerlihyHeap {
	return lockfree.NewHerlihyHeap(s, st, capacity)
}

// NewFAICounter allocates a fetch-and-increment counter.
func NewFAICounter(s *Space, st *MemStore) *FAICounter { return lockfree.NewFAICounter(s, st) }

// Evaluation workloads and harness.
type (
	// Kernel is one of the paper's 24 synchronization kernels (§5.3.1).
	Kernel = kernels.Kernel
	// KernelConfig tunes a kernel run (iterations, backoff, ablations).
	KernelConfig = kernels.Config
	// KernelGroup classifies kernels by figure.
	KernelGroup = kernels.Group
	// App is one of the 13 application models (§5.3.2).
	App = apps.App
	// Figure is a reproduced figure: workloads x protocols results with
	// normalized rendering.
	Figure = harness.Figure
	// FigureRow is one (workload, protocol) result within a Figure.
	FigureRow = harness.Row
	// FigureOptions tunes a reproduction run (workload scale).
	FigureOptions = exp.Options
)

// Kernel groups (one per kernel figure).
const (
	KernelsTATAS       = kernels.LockTATAS
	KernelsArrayLock   = kernels.LockArray
	KernelsNonBlocking = kernels.NonBlocking
	KernelsBarrier     = kernels.Barriers
)

// Kernels returns the paper's 24 synchronization kernels.
func Kernels() []Kernel { return kernels.All() }

// KernelByID finds a kernel by slug (e.g. "tatas-single-q").
func KernelByID(id string) (Kernel, bool) { return kernels.ByID(id) }

// RunKernel runs kernel k on machine m with the paper's driver protocol.
func RunKernel(k Kernel, m *Machine, c KernelConfig) (*RunStats, error) {
	return kernels.Run(k, m, c)
}

// Apps returns the 13 Figure 7 application models.
func Apps() []App { return apps.All() }

// AppByID finds an application model by slug (e.g. "canneal").
func AppByID(id string) (App, bool) { return apps.ByID(id) }

// RunApp runs application a on machine m; scale > 1 shrinks the workload.
func RunApp(a App, m *Machine, scale int) (*RunStats, error) {
	return apps.Run(a, m, scale)
}

// ClaimsFor returns the paper-claim set matching a reproduced figure.
func ClaimsFor(f *Figure) []harness.Claim { return harness.ClaimsFor(f) }

// CheckClaims evaluates a reproduced figure against the paper's
// qualitative claims (§7), writing one HOLDS/DEVIATES verdict per claim.
func CheckClaims(f *Figure, w io.Writer) (pass, deviations int) {
	return harness.CheckClaims(f, w)
}

// Reproduce runs one of the paper's figures or ablation studies, named
// as FigureNames lists them ("fig3".."fig7", "swbackoff", ...), on a
// machine of cores cores (16 or 64; Figure 7 sets its own per-app sizes
// and ignores it), with its runs spread over GOMAXPROCS workers. See
// EXPERIMENTS.md.
func Reproduce(name string, cores int, o FigureOptions) (*Figure, error) {
	return exp.Reproduce(name, cores, o)
}

// FigureNames lists the reproducible figures and ablation studies in
// display order.
func FigureNames() []string { return exp.FigureNames() }
