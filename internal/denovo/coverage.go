package denovo

import (
	"denovosync/internal/cache"
	"denovosync/internal/proto"
)

// Transition-coverage hooks: each protocol handler reports the
// (controller, state, event) pair it fires with to an optional observer,
// using exactly the naming scheme of the static transition atlas
// (internal/lint/atlas, docs/atlas/denovo.json). cmd/protocov aggregates
// these hits across the full kernel grid and gates every implemented
// transition on being either covered or //atlas:unreachable-annotated.
//
// With no observer attached the hooks are a nil check — nothing on the
// hot path allocates or formats.

// Controller names as they appear in atlas tuples.
const (
	CtrlL1  = "denovo.L1"
	CtrlReg = "denovo.Registry"
)

// TransitionObserver receives one (controller, state, event) hit per
// handler activation. state is the atlas constant name ("wi", "wv", "wr"
// for L1 word states; "roL2", "roSelf", "roOther" for the registry's
// per-word owner classification); event is the handler name,
// kind-qualified for access-kind-dispatched handlers (e.g.
// "recvFwdReg:SyncLoad").
type TransitionObserver func(controller, state, event string)

// WordStateName returns the atlas name of an L1 word state.
func WordStateName(s cache.WordState) string {
	switch s {
	case wi:
		return "wi"
	case wv:
		return "wv"
	case wr:
		return "wr"
	}
	return "?"
}

// OwnerStateName returns the atlas name of a registry owner state.
func OwnerStateName(s regOwnerState) string {
	switch s {
	case roL2:
		return "roL2"
	case roSelf:
		return "roSelf"
	case roOther:
		return "roOther"
	}
	return "?"
}

// SetTransitionObserver attaches (or with nil, detaches) the coverage
// observer for this L1's handlers.
func (c *L1) SetTransitionObserver(o TransitionObserver) { c.obs = o }

// SetTransitionObserver attaches (or with nil, detaches) the coverage
// observer for the registry's handlers.
func (r *Registry) SetTransitionObserver(o TransitionObserver) { r.obs = o }

// wordState returns the current cached state of word (wi if absent).
func (c *L1) wordState(word proto.Addr) cache.WordState {
	if l := c.cache.Lookup(word); l != nil {
		return l.WordState[word.WordIndex()]
	}
	return wi
}

func (c *L1) observe(s cache.WordState, event string) {
	if c.obs != nil {
		c.obs(CtrlL1, WordStateName(s), event)
	}
}

func (c *L1) observeKind(s cache.WordState, event string, k proto.AccessKind) {
	if c.obs != nil {
		c.obs(CtrlL1, WordStateName(s), event+":"+k.String())
	}
}

// observeWord reports event in word's current cached state, looking the
// state up only when an observer is attached.
func (c *L1) observeWord(word proto.Addr, event string) {
	if c.obs != nil {
		c.obs(CtrlL1, WordStateName(c.wordState(word)), event)
	}
}

// observeWordKind is observeWord for an access-kind-qualified event.
func (c *L1) observeWordKind(word proto.Addr, event string, k proto.AccessKind) {
	if c.obs != nil {
		c.obs(CtrlL1, WordStateName(c.wordState(word)), event+":"+k.String())
	}
}

func (r *Registry) observe(s regOwnerState, event string) {
	if r.obs != nil {
		r.obs(CtrlReg, OwnerStateName(s), event)
	}
}

func (r *Registry) observeReg(s regOwnerState, k proto.AccessKind) {
	if r.obs != nil {
		r.obs(CtrlReg, OwnerStateName(s), "recvReg:"+k.String())
	}
}
