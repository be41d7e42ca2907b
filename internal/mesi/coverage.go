package mesi

import (
	"denovosync/internal/cache"
	"denovosync/internal/proto"
)

// Transition-coverage hooks: each protocol handler reports the
// (controller, state, event) pair it fires with to an optional observer,
// using exactly the naming scheme of the static transition atlas
// (internal/lint/atlas, docs/atlas/mesi.json). cmd/protocov aggregates
// these hits across the full kernel grid and gates every implemented
// transition on being either covered or //atlas:unreachable-annotated.
//
// With no observer attached the hooks are a nil check — nothing on the
// hot path allocates or formats.

// Controller names as they appear in atlas tuples.
const (
	CtrlL1  = "mesi.L1"
	CtrlDir = "mesi.Directory"
)

// TransitionObserver receives one (controller, state, event) hit per
// handler activation. state is the atlas constant name ("li", "ls", "le",
// "lm" for L1 lines; "di", "ds", "dm" for directory entries); event is
// the handler name, kind-qualified for access-kind-dispatched handlers
// (e.g. "access:SyncLoad").
type TransitionObserver func(controller, state, event string)

// LineStateName returns the atlas name of an L1 line state.
func LineStateName(s cache.LineState) string {
	switch s {
	case li:
		return "li"
	case ls:
		return "ls"
	case le:
		return "le"
	case lm:
		return "lm"
	}
	return "?"
}

// DirStateName returns the atlas name of a directory state.
func DirStateName(s dirState) string {
	switch s {
	case di:
		return "di"
	case ds:
		return "ds"
	case dm:
		return "dm"
	}
	return "?"
}

// SetTransitionObserver attaches (or with nil, detaches) the coverage
// observer for this L1's handlers.
func (c *L1) SetTransitionObserver(o TransitionObserver) { c.obs = o }

// SetTransitionObserver attaches (or with nil, detaches) the coverage
// observer for the directory's handlers.
func (d *Directory) SetTransitionObserver(o TransitionObserver) { d.obs = o }

// lineState returns the current cached state of line (li if absent).
func (c *L1) lineState(line proto.Addr) cache.LineState {
	if l := c.cache.Lookup(line); l != nil {
		return l.LineState
	}
	return li
}

func (c *L1) observe(s cache.LineState, event string) {
	if c.obs != nil {
		c.obs(CtrlL1, LineStateName(s), event)
	}
}

// observeLine reports event in line's current cached state, looking the
// state up only when an observer is attached.
func (c *L1) observeLine(line proto.Addr, event string) {
	if c.obs != nil {
		c.obs(CtrlL1, LineStateName(c.lineState(line)), event)
	}
}

func (c *L1) observeAccess(s cache.LineState, k proto.AccessKind) {
	if c.obs != nil {
		c.obs(CtrlL1, LineStateName(s), "access:"+k.String())
	}
}

func (d *Directory) observe(s dirState, event string) {
	if d.obs != nil {
		d.obs(CtrlDir, DirStateName(s), event)
	}
}
