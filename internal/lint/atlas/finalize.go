package atlas

import "sort"

// finalize turns the accumulated drafts into merged, expanded tuples.
//
// Cross product: a draft's state set (nil => ["*"]) times its kind set
// (nil => unqualified event). Duplicate (state, event) tuples merge their
// atoms (first position wins). Then the residual-expansion rule: within
// one (controller, event), a "*" tuple that coexists with specific-state
// tuples stands for exactly the states that have no specific tuple — it
// is replaced by one tuple per missing declared state (or dropped when
// every state already has one). A "*" tuple with no specific siblings
// stays "*": the handler genuinely does not discriminate on state.
func (ex *extractor) finalize() []*Transition {
	type key struct{ state, event string }
	merged := map[key]*Transition{}
	var order []key

	events := make([]string, 0, len(ex.drafts))
	for e := range ex.drafts { //simlint:allow determinism: sorted on the next line
		events = append(events, e)
	}
	sort.Strings(events)

	for _, event := range events {
		for _, d := range ex.drafts[event] {
			if emptySet(d.states) || emptySet(d.kinds) {
				continue // unreachable guard combination
			}
			states := []string{"*"}
			if d.states != nil {
				states = states[:0]
				for _, s := range ex.stateNames {
					if d.states[s] {
						states = append(states, s)
					}
				}
			}
			eventNames := []string{event}
			if d.kinds != nil {
				eventNames = eventNames[:0]
				for _, k := range ex.kindNames {
					if d.kinds[k] {
						eventNames = append(eventNames, event+":"+k)
					}
				}
			}
			for _, s := range states {
				for _, e := range eventNames {
					k := key{s, e}
					t := merged[k]
					if t == nil {
						t = &Transition{
							Controller: ex.spec.Controller, State: s, Event: e,
							Pos: ex.posString(d.pos),
						}
						merged[k] = t
						order = append(order, k)
					}
					mergeAtoms(t, d.at)
				}
			}
		}
	}

	// Residual expansion.
	byEvent := map[string][]key{}
	for _, k := range order {
		byEvent[k.event] = append(byEvent[k.event], k)
	}
	var out []*Transition
	for _, k := range order {
		t := merged[k]
		if t == nil {
			continue
		}
		if k.state != "*" || len(byEvent[k.event]) == 1 {
			out = append(out, t)
			continue
		}
		// "*" with specific siblings: expand to the uncovered states.
		have := map[string]bool{}
		for _, sib := range byEvent[k.event] {
			if sib.state != "*" {
				have[sib.state] = true
			}
		}
		for _, s := range ex.stateNames {
			if have[s] {
				continue
			}
			out = append(out, &Transition{
				Controller: t.Controller, State: s, Event: t.Event,
				Next:    append([]string(nil), t.Next...),
				Sends:   append([]string(nil), t.Sends...),
				Actions: append([]string(nil), t.Actions...),
				Pos:     t.Pos,
			})
		}
	}
	return out
}

// mergeAtoms folds a draft's atom sets into a tuple (deduplicated).
func mergeAtoms(t *Transition, a atoms) {
	t.Next = addAll(t.Next, a.next)
	t.Sends = addAll(t.Sends, a.sends)
	t.Actions = addAll(t.Actions, a.actions)
}

func addAll(dst []string, src map[string]bool) []string {
	for s := range src {
		found := false
		for _, d := range dst {
			if d == s {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, s)
		}
	}
	sort.Strings(dst)
	return dst
}
