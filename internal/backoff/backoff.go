// Package backoff is the repo's one retry-delay policy: exponential
// backoff with deterministic seeded jitter. It was extracted from
// internal/exp so that experiment run retries and the fabric's
// worker→coordinator RPCs share a single schedule, and so that schedule
// is a pure function of (seed, attempt) — two processes configured with
// the same policy produce the same delays, which is what makes the
// fault-injection batteries replayable.
//
// The package is inside the simlint determinism scope on purpose: even
// though everything above it is host-service code free to read wall
// clocks, the *schedule* itself must never depend on one. Delay is a
// pure function; only Sleep touches the host timer, and it sleeps for a
// duration computed before it looks at any clock.
package backoff

import (
	"fmt"
	"time"
)

// Policy is an exponential-backoff schedule with seeded half-jitter.
// The zero value is a usable "no delay" policy (every Delay is 0), which
// preserves the retry-immediately behavior callers had before the
// extraction.
type Policy struct {
	// Base is the nominal delay before the first retry; successive
	// attempts double it. Base <= 0 disables delays entirely.
	Base time.Duration

	// Max caps the nominal (pre-jitter) delay. Max <= 0 defaults to
	// 64 × Base, bounding the doubling at attempt 7.
	Max time.Duration

	// Seed selects the jitter stream. Two policies with equal
	// (Base, Max, Seed) produce identical schedules.
	Seed uint64
}

// splitmix64 is the standard SplitMix64 output function: a bijective
// avalanche mix, so consecutive attempt numbers yield well-distributed
// jitter. It is stateless — determinism comes for free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed folds a string key into a policy sub-seed (FNV-1a 64 mixed
// with the base seed), so every run key retries on an independent jitter
// stream while the whole schedule stays reproducible.
func DeriveSeed(seed uint64, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return splitmix64(h ^ seed)
}

// Keyed returns a copy of the policy whose jitter stream is derived from
// key (see DeriveSeed).
func (p Policy) Keyed(key string) Policy {
	p.Seed = DeriveSeed(p.Seed, key)
	return p
}

// nominal returns the un-jittered delay for attempt n (1-based): Base
// doubled n-1 times, clamped to the cap with overflow protection.
func (p Policy) nominal(attempt int) time.Duration {
	if p.Base <= 0 || attempt < 1 {
		return 0
	}
	max := p.Max
	if max <= 0 {
		max = 64 * p.Base
	}
	if max < p.Base {
		max = p.Base
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		if d >= max/2 {
			return max
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Delay returns the jittered delay to sleep before retry attempt n
// (1-based: Delay(1) precedes the first retry). Half-jitter: the result
// is uniform in [nominal/2, nominal], so delays never collapse to zero
// (retry storms) yet stay bounded by the nominal schedule. Pure
// function: same (policy, attempt) → same duration.
func (p Policy) Delay(attempt int) time.Duration {
	n := p.nominal(attempt)
	if n <= 0 {
		return 0
	}
	half := n / 2
	span := uint64(n-half) + 1
	j := splitmix64(p.Seed^uint64(attempt)) % span
	return half + time.Duration(j)
}

// Sleep blocks for Delay(attempt), returning early with false if cancel
// closes first (true otherwise, including zero-delay attempts). This is
// the only clock-touching function in the package; the duration it
// sleeps was fixed before any timer started.
func (p Policy) Sleep(attempt int, cancel <-chan struct{}) bool {
	d := p.Delay(attempt)
	if d <= 0 {
		select {
		case <-cancel:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// String renders the policy for logs and flag defaults.
func (p Policy) String() string {
	if p.Base <= 0 {
		return "backoff(off)"
	}
	return fmt.Sprintf("backoff(base=%s, max=%s, seed=%d)", p.Base, p.nominal(1<<30), p.Seed)
}
