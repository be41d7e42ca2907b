// Package denovo implements the DeNovo protocol family of the paper:
// word-granularity coherence with exactly three states (Invalid, Valid,
// Registered), no writer-initiated invalidations, no sharer lists, and a
// non-blocking registry at the shared L2 — extended for arbitrary
// synchronization per the paper's contribution:
//
//   - DeNovoSync0 (§4.1): synchronization reads register at the LLC like
//     writes (single-reader rule), so a sync read always sees the latest
//     registered value without any writer-initiated invalidation. Racy
//     registration transfers are resolved by a distributed queue: a
//     forwarded registration arriving at an L1 whose own registration is
//     still pending parks in the MSHR and is serviced when the ack lands.
//
//   - DeNovoSync (§4.2): adds an adaptive per-core hardware backoff. A
//     remote sync-read registration request downgrades the owner R→Valid
//     and bumps its backoff counter by the increment counter; every Nth
//     incoming remote sync-read request (N = core count) grows the
//     increment; a sync read hit resets the backoff counter; a release
//     resets the increment. Sync reads to Valid state stall for the
//     backoff value before issuing their miss.
//
// Data consistency uses DeNovo's region-based static self-invalidation
// (§3): SelfInvalidate drops cached Valid words of the named regions;
// Registered words stay (they are the core's own latest writes).
package denovo

import (
	"denovosync/internal/cache"
	"denovosync/internal/mem"
	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
)

// Word states (cache.Line.WordState values). Typed so that simlint's
// exhauststate analyzer verifies every switch over a word state covers all
// three states (or panics explicitly).
const (
	wi cache.WordState = iota // Invalid
	wv                        // Valid
	wr                        // Registered
)

// Config wires a DeNovo system together.
type Config struct {
	Eng   *sim.Engine
	Net   *noc.Network
	Store *mem.Store
	DRAM  *mem.DRAM

	L1Size, L1Ways int

	// Latencies (cycles), fitted to Table 1 (1 / 27 / 9).
	L1AccessLat, L2AccessLat, RemoteL1Lat sim.Cycle

	// Backoff enables the DeNovoSync hardware backoff (false = DeNovoSync0).
	Backoff bool
	// BackoffBits sizes the backoff counter (9 bits at 16 cores, 12 at 64;
	// §5.2). The counter wraps to zero on overflow (§4.2.1).
	BackoffBits uint
	// DefaultIncrement is the increment counter's reset value (1 cycle at
	// 16 cores, 64 at 64 cores; §5.2).
	DefaultIncrement sim.Cycle
	// IncEveryN grows the increment counter by DefaultIncrement on every
	// Nth incoming remote sync-read registration request (§4.2.2: the core
	// count is a good indicator).
	IncEveryN int

	// Signatures enables DeNovoND-style hardware write signatures for
	// dynamic self-invalidation (the §3 alternative to static regions).
	// Locks built with UseSignatures consult it via the thread API.
	Signatures *mem.SigTable

	// UnitWords sets the coherence-state granularity in words: 1 (or 0)
	// is the paper's word granularity; WordsPerLine gives a line-granular
	// DeNovo variant that reintroduces false sharing — the ablation behind
	// the §2.2 claim that word-granularity state eliminates it. Must
	// divide WordsPerLine.
	UnitWords int
}

// unitWords returns the effective granularity.
func (c *Config) unitWords() int {
	if c.UnitWords <= 1 {
		return 1
	}
	if proto.WordsPerLine%c.UnitWords != 0 {
		panic("denovo: UnitWords must divide WordsPerLine")
	}
	return c.UnitWords
}

// unitOf returns the coherence-unit base address containing a.
func (c *Config) unitOf(a proto.Addr) proto.Addr {
	return a &^ proto.Addr(c.unitWords()*proto.WordBytes-1)
}

// initialIncrement returns the increment counter's reset value, clamped
// to the counter width like every later growth step — a DefaultIncrement
// wider than the register cannot exist in hardware.
func (c *Config) initialIncrement() sim.Cycle {
	if mask := c.backoffMask(); c.DefaultIncrement > mask {
		return mask
	}
	return c.DefaultIncrement
}

// backoffMask returns the wrap mask for the backoff counter.
func (c *Config) backoffMask() sim.Cycle {
	if c.BackoffBits == 0 || c.BackoffBits >= 63 {
		return ^sim.Cycle(0)
	}
	return (sim.Cycle(1) << c.BackoffBits) - 1
}
