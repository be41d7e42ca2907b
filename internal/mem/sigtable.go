package mem

import "denovosync/internal/proto"

// SigTable implements the DeNovoND-style [35] hardware write-signature
// store for dynamic self-invalidation: conceptually a small table carried
// with the synchronization variables.
//
// Semantics: when a core acquires lock L it must invalidate exactly the
// data written under L since *it* last held L. The table therefore keeps
// one accumulator per (lock, core): a release unions the releaser's
// write signature into every other core's accumulator for that lock; an
// acquire consumes (returns and clears) the acquirer's own accumulator.
// Bloom false positives only cause extra safe invalidations.
//
// Architecturally the signatures ride the sync-variable ownership
// transfer (registration messages), so one table serves every tile.
type SigTable struct {
	cores int
	sigs  map[proto.Addr][]proto.Signature // lock word -> per-core accumulators
}

// NewSigTable returns an empty table for a cores-core machine.
func NewSigTable(cores int) *SigTable {
	return &SigTable{cores: cores, sigs: make(map[proto.Addr][]proto.Signature)}
}

func (t *SigTable) entry(lock proto.Addr) []proto.Signature {
	w := lock.Word()
	e, ok := t.sigs[w]
	if !ok {
		e = make([]proto.Signature, t.cores)
		t.sigs[w] = e
	}
	return e
}

// Publish merges the releaser's write signature into every other core's
// accumulator for lock (the releaser's own registered copies are already
// current).
func (t *SigTable) Publish(lock proto.Addr, sig proto.Signature, releaser int) {
	if sig.Empty() {
		return
	}
	e := t.entry(lock)
	for i := range e {
		if i != releaser {
			e[i].UnionWith(sig)
		}
	}
}

// Consume returns and clears core's accumulated signature for lock.
func (t *SigTable) Consume(lock proto.Addr, core int) proto.Signature {
	e := t.entry(lock)
	sig := e[core]
	e[core].Clear()
	return sig
}
