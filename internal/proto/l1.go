package proto

import "denovosync/internal/sim"

// L1Controller is the interface a core uses to talk to its private cache,
// implemented by both the MESI and the DeNovo controllers. All methods are
// called from engine events (single-threaded).
type L1Controller interface {
	// Access starts a memory access. req.Done is invoked (in a later engine
	// event) when the access commits. Non-blocking data stores call Done at
	// local commit while the coherence transaction continues in the
	// background; everything else calls Done when globally complete. The
	// request is passed by value: nothing mutates it after issue, and an
	// access that hits allocates nothing.
	Access(req Request)

	// SelfInvalidate drops every cached Valid word whose region is in set
	// (DeNovo); a no-op for MESI, whose writer-initiated invalidations make
	// it unnecessary.
	SelfInvalidate(set RegionSet)

	// Epoch samples addr for a spin and returns the sample's number. Cores
	// use it with WaitDisturb to model spin-waiting without simulating
	// every spin hit: sample, load, and if the value does not satisfy the
	// spin, wait for a disturbance. A disturbance is a change of the
	// locally cached state of addr's coherence unit (the word on DeNovo,
	// the line on MESI) by remote protocol activity, an eviction or a
	// self-invalidation: invalidation, registration revocation,
	// downgrade. Local fills do not count.
	//
	// Each L1 serves one core and a core has at most one sample
	// outstanding, so an L1 keeps a single watch: Epoch points it at addr
	// and supersedes the previous sample, whose waiters wake at once.
	Epoch(addr Addr) uint64

	// WaitDisturb calls fn, in a scheduled event, once addr has been
	// disturbed since sample was taken: at once if it already was. A
	// superseded sample, or an addr other than the sampled one, also
	// wakes fn at once — a wait may end early, never late, and the
	// caller samples and loads again.
	WaitDisturb(addr Addr, sample uint64, fn func())

	// OnWritesDrained calls fn once all outstanding non-blocking stores
	// have completed their coherence transactions (fence/sync ordering).
	OnWritesDrained(fn func())

	// BackoffStallCycles returns the cumulative cycles this L1 has stalled
	// sync reads in hardware backoff (DeNovoSync only; 0 otherwise).
	BackoffStallCycles() sim.Cycle

	// SignatureRelease publishes the core's write-set signature to lock's
	// entry in the signature table and clears it — the release half of
	// DeNovoND-style dynamic self-invalidation. A no-op on MESI.
	SignatureRelease(lock Addr)

	// SignatureAcquire self-invalidates cached Valid words matching
	// lock's accumulated write signature — the acquire half. A no-op on
	// MESI.
	SignatureAcquire(lock Addr)

	// Stats returns the controller's hit/miss counters.
	Stats() *L1Stats
}

// L1Stats counts per-L1 cache events, split by access kind.
type L1Stats struct {
	Hits    [5]uint64 // indexed by AccessKind
	Misses  [5]uint64
	Evicted uint64
	WB      uint64 // writebacks issued
}

// Hit records a hit for kind k.
func (s *L1Stats) Hit(k AccessKind) { s.Hits[k]++ }

// Miss records a miss for kind k.
func (s *L1Stats) Miss(k AccessKind) { s.Misses[k]++ }

// TotalHits sums hits across kinds.
func (s *L1Stats) TotalHits() uint64 {
	var t uint64
	for _, v := range s.Hits {
		t += v
	}
	return t
}

// TotalMisses sums misses across kinds.
func (s *L1Stats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}
