// Package atlas extracts a machine-readable protocol-transition atlas
// from the coherence controllers' source code. It walks the state/event
// switch nests of internal/mesi and internal/denovo on the
// internal/lint/analysis API surface (go/ast + go/types only — no
// simulator imports, so lint analyzers may depend on it) and produces,
// for every (controller, state, event) tuple, the possible next states,
// the helper actions invoked, the messages sent (named by the remote
// handler the message's kind reaches), and the source position.
//
// The atlas is checked in as golden JSON (docs/atlas/{mesi,denovo}.json)
// and consumed three ways:
//
//   - cmd/protocov regenerates it (drift gate), aggregates runtime
//     (controller, state, event) hits from the coverage observers across
//     the kernel grid, and gates every tuple on being either covered or
//     annotated //atlas:unreachable;
//   - the atlasdrift analyzer fails simlint when a handler grows a
//     transition the golden does not know about;
//   - the model cross-check maps tuples onto the abstract internal/verify
//     models through an explicit abstraction map.
package atlas

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Transition is one (controller, state, event) tuple of the atlas.
//
// State is the source-level constant name of the guarding stable state
// ("li", "ds", "wr", "roOther", ...) or "*" when the handler does not
// discriminate on state. Event is the handler method name, suffixed with
// ":<AccessKind>" when the handler dispatches on the access kind (e.g.
// "access:SyncLoad"). Content fields use may-semantics: they list what
// the tuple's code region can do, attributed at guard granularity.
type Transition struct {
	Controller string `json:"controller"`
	State      string `json:"state"`
	Event      string `json:"event"`

	// Next lists the stable states this transition can install.
	Next []string `json:"next,omitempty"`
	// Sends lists the remote handlers this transition's messages invoke.
	Sends []string `json:"sends,omitempty"`
	// Actions lists local controller/cache helpers the transition calls.
	Actions []string `json:"actions,omitempty"`

	// Pos anchors the tuple's guard in source ("file.go:123").
	Pos string `json:"pos"`

	// Unreachable carries the reason from an //atlas:unreachable
	// annotation; such tuples are exempt from the runtime coverage gate
	// (and flagged if they are covered anyway).
	Unreachable string `json:"unreachable,omitempty"`
}

// Key identifies a tuple.
func (t *Transition) Key() string {
	return t.Controller + " " + t.State + " " + t.Event
}

// EventBase returns the event's handler name without a kind qualifier.
func EventBase(event string) string {
	if i := strings.IndexByte(event, ':'); i >= 0 {
		return event[:i]
	}
	return event
}

// Atlas is one protocol's full transition table.
type Atlas struct {
	// Protocol is "mesi" or "denovo".
	Protocol string `json:"protocol"`
	// States maps each controller to its declared stable states, in
	// declaration (value) order.
	States map[string][]string `json:"states"`
	// Transitions is sorted by (controller, event, state).
	Transitions []*Transition `json:"transitions"`
}

// Lookup returns the tuple with the given key, or nil.
func (a *Atlas) Lookup(controller, state, event string) *Transition {
	for _, t := range a.Transitions {
		if t.Controller == controller && t.State == state && t.Event == event {
			return t
		}
	}
	return nil
}

// sortKey orders states by declaration order within their controller,
// with "*" last.
func (a *Atlas) stateIndex(controller, state string) int {
	if state == "*" {
		return 1 << 20
	}
	for i, s := range a.States[controller] {
		if s == state {
			return i
		}
	}
	return 1 << 19
}

// Sort puts transitions into the canonical golden order.
func (a *Atlas) Sort() {
	sort.Slice(a.Transitions, func(i, j int) bool {
		x, y := a.Transitions[i], a.Transitions[j]
		if x.Controller != y.Controller {
			return x.Controller < y.Controller
		}
		if x.Event != y.Event {
			return x.Event < y.Event
		}
		return a.stateIndex(x.Controller, x.State) < a.stateIndex(y.Controller, y.State)
	})
	for _, t := range a.Transitions {
		sort.Strings(t.Next)
		sort.Strings(t.Sends)
		sort.Strings(t.Actions)
	}
}

// WriteFile writes the atlas as stable, indented golden JSON.
func (a *Atlas) WriteFile(path string) error {
	a.Sort()
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a golden atlas.
func ReadFile(path string) (*Atlas, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Atlas
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("atlas: parsing %s: %w", path, err)
	}
	return &a, nil
}

// Equal reports whether two atlases are semantically identical (same
// tuples with the same content, positions included).
func Equal(a, b *Atlas) bool {
	a.Sort()
	b.Sort()
	da, _ := json.Marshal(a)
	db, _ := json.Marshal(b)
	return string(da) == string(db)
}

// Diff returns a human-readable summary of tuple-level differences
// between the golden and regenerated atlases (empty when identical).
func Diff(golden, fresh *Atlas) []string {
	var out []string
	gk := map[string]*Transition{}
	for _, t := range golden.Transitions {
		gk[t.Key()] = t
	}
	fk := map[string]*Transition{}
	for _, t := range fresh.Transitions {
		fk[t.Key()] = t
	}
	fresh.Sort()
	golden.Sort()
	for _, t := range fresh.Transitions {
		g, ok := gk[t.Key()]
		if !ok {
			out = append(out, fmt.Sprintf("new tuple (%s) at %s", t.Key(), t.Pos))
			continue
		}
		dg, _ := json.Marshal(g)
		df, _ := json.Marshal(t)
		if string(dg) != string(df) {
			out = append(out, fmt.Sprintf("changed tuple (%s) at %s", t.Key(), t.Pos))
		}
	}
	for _, t := range golden.Transitions {
		if _, ok := fk[t.Key()]; !ok {
			out = append(out, fmt.Sprintf("removed tuple (%s), was at %s", t.Key(), t.Pos))
		}
	}
	return out
}

// Hit is one runtime (controller, state, event) activation reported by a
// coverage observer (mesi/denovo SetTransitionObserver).
type Hit struct {
	Controller, State, Event string
}

// Covers reports whether hit h covers tuple t:
//
//   - controllers must match exactly;
//   - tuple state "*" matches any hit state, otherwise exact;
//   - the tuple event matches the hit event exactly, or the hit's
//     kind-qualified event ("access:SyncLoad") covers the tuple's
//     unqualified base event ("access").
func (t *Transition) Covers(h Hit) bool {
	if t.Controller != h.Controller {
		return false
	}
	if t.State != "*" && t.State != h.State {
		return false
	}
	return t.Event == h.Event || t.Event == EventBase(h.Event)
}

// Coverage is the result of matching a hit set against an atlas.
type Coverage struct {
	Covered []*Transition
	// Uncovered are reachable tuples (not annotated) with no hit.
	Uncovered []*Transition
	// Unreachable are annotated tuples with no hit (as expected).
	Unreachable []*Transition
	// Stale are tuples annotated //atlas:unreachable that WERE hit —
	// the annotation no longer tells the truth.
	Stale []*Transition
	// Unknown are hits matching no tuple (informational: the observer
	// fired in a state the static walk attributes to no guard).
	Unknown []Hit
}

// Match computes coverage of atlas a by the hit multiset.
func Match(a *Atlas, hits map[Hit]uint64) *Coverage {
	cov := &Coverage{}
	matched := map[Hit]bool{}
	for _, t := range a.Transitions {
		hit := false
		for h := range hits { //simlint:allow determinism: match result sets are sorted by the caller's report
			if t.Covers(h) {
				hit = true
				matched[h] = true
			}
		}
		switch {
		case hit && t.Unreachable != "":
			cov.Stale = append(cov.Stale, t)
		case hit:
			cov.Covered = append(cov.Covered, t)
		case t.Unreachable != "":
			cov.Unreachable = append(cov.Unreachable, t)
		default:
			cov.Uncovered = append(cov.Uncovered, t)
		}
	}
	for h := range hits { //simlint:allow determinism: sorted below
		if !matched[h] {
			cov.Unknown = append(cov.Unknown, h)
		}
	}
	sort.Slice(cov.Unknown, func(i, j int) bool {
		x, y := cov.Unknown[i], cov.Unknown[j]
		if x.Controller != y.Controller {
			return x.Controller < y.Controller
		}
		if x.Event != y.Event {
			return x.Event < y.Event
		}
		return x.State < y.State
	})
	return cov
}
