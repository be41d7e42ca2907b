package atlas

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// walkResult summarizes one statement region.
type walkResult struct {
	drafts []*draft // partition drafts created inside the region
	pass   atoms    // atoms on the fall-through path (includes the seed)
	// states/kinds are the guard sets of the fall-through path after
	// flow narrowing (nil = unconstrained, empty = unreachable).
	states, kinds map[string]bool
	terminated    bool // every path ends in return/panic/continue/break
}

// walkStmts analyzes a straight-line region under guard (states, kinds),
// with seed the pass-through atoms accumulated by the enclosing region so
// far (new drafts inherit them). The walk maintains flow narrowing: a
// guard-terminated or partitioned branch removes its states/kinds from
// the fall-through sets, and partition drafts stay "open" so that atoms
// of later statements (which their paths also execute) reach them.
func (ex *extractor) walkStmts(stmts []ast.Stmt, states, kinds map[string]bool, seed atoms) walkResult {
	r := walkResult{pass: seed.clone(), states: cloneSet(states), kinds: cloneSet(kinds)}

	add := func(a atoms) {
		r.pass.merge(a)
		for _, d := range r.drafts {
			if d.open {
				d.at.merge(a)
			}
		}
	}
	absorb := func(sub walkResult) { // pass-through sub-region (loop, continuation, ...)
		r.drafts = append(r.drafts, sub.drafts...)
		add(sub.pass)
	}

	for _, stmt := range stmts {
		if r.terminated {
			break // dead code
		}
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			r.terminated = true
		case *ast.BranchStmt:
			if s.Tok == token.CONTINUE || s.Tok == token.BREAK {
				r.terminated = true
			}
		case *ast.IfStmt:
			if s.Init != nil {
				ex.simpleStmt(s.Init, r.states, r.kinds, add, &r)
			}
			cs, ck, pure := ex.cond(s.Cond)
			if pure && (cs != nil || ck != nil) {
				ex.pureIf(s, cs, ck, add, &r)
			} else {
				// Impure guard: both branches merge into the fall-through
				// context (may-semantics), no narrowing.
				sub := ex.walkStmts(s.Body.List, r.states, r.kinds, r.pass)
				absorb(sub)
				if s.Else != nil {
					sub := ex.walkStmts(elseStmts(s.Else), r.states, r.kinds, r.pass)
					absorb(sub)
				}
			}
		case *ast.SwitchStmt:
			if s.Init != nil {
				ex.simpleStmt(s.Init, r.states, r.kinds, add, &r)
			}
			ex.switchStmt(s, add, &r)
		case *ast.ForStmt:
			sub := ex.walkStmts(s.Body.List, r.states, r.kinds, r.pass)
			absorb(sub)
		case *ast.RangeStmt:
			sub := ex.walkStmts(s.Body.List, r.states, r.kinds, r.pass)
			absorb(sub)
		case *ast.BlockStmt:
			sub := ex.walkStmts(s.List, r.states, r.kinds, r.pass)
			absorb(sub)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isPanic(call) {
				r.terminated = true
				continue
			}
			ex.simpleStmt(s, r.states, r.kinds, add, &r)
		default:
			ex.simpleStmt(s, r.states, r.kinds, add, &r)
		}
	}
	return r
}

// pureIf handles an if whose condition is a pure state/kind constraint:
// the then-branch becomes a partition draft and the fall-through guard
// narrows to the complement.
func (ex *extractor) pureIf(s *ast.IfStmt, cs, ck map[string]bool, add func(atoms), r *walkResult) {
	thenStates := intersect(r.states, cs)
	thenKinds := intersect(r.kinds, ck)
	sub := ex.walkStmts(s.Body.List, thenStates, thenKinds, r.pass)
	r.drafts = append(r.drafts, sub.drafts...)
	r.drafts = append(r.drafts, &draft{
		states: sub.states, kinds: sub.kinds, pos: s.Pos(),
		at: sub.pass, open: !sub.terminated,
	})
	if cs != nil {
		r.states = subtract(orUniverse(r.states, ex.stateNames), cs)
	}
	if ck != nil {
		r.kinds = subtract(orUniverse(r.kinds, ex.kindNames), ck)
	}
	if s.Else != nil {
		esub := ex.walkStmts(elseStmts(s.Else), r.states, r.kinds, r.pass)
		r.drafts = append(r.drafts, esub.drafts...)
		r.drafts = append(r.drafts, &draft{
			states: esub.states, kinds: esub.kinds, pos: s.Else.Pos(),
			at: esub.pass, open: !esub.terminated,
		})
		// Both branches are partitioned: nothing falls through untracked.
		if cs != nil {
			r.states = map[string]bool{}
		} else {
			r.kinds = map[string]bool{}
		}
		if sub.terminated && esub.terminated {
			r.terminated = true
		}
	}
	_ = add
}

// switchStmt handles state switches and kind switches as partitions;
// any other switch is plain control flow whose arms merge.
func (ex *extractor) switchStmt(s *ast.SwitchStmt, add func(atoms), r *walkResult) {
	var sort string
	if s.Tag != nil {
		if tv, ok := ex.info.Types[s.Tag]; ok {
			switch {
			case types.Identical(tv.Type, ex.stateType):
				sort = "state"
			case types.Identical(tv.Type, ex.kindType):
				sort = "kind"
			}
		}
	}
	if sort == "" {
		// Tagless or non-guard switch: merge every arm.
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			sub := ex.walkStmts(clause.Body, r.states, r.kinds, r.pass)
			r.drafts = append(r.drafts, sub.drafts...)
			r.pass.merge(sub.pass)
			for _, d := range r.drafts {
				if d.open {
					d.at.merge(sub.pass)
				}
			}
		}
		return
	}

	typ, universe := ex.stateType, ex.stateNames
	if sort == "kind" {
		typ, universe = ex.kindType, ex.kindNames
	}
	cur := orUniverse(guardFor(sort, r), universe)
	covered := map[string]bool{}
	allTerminated := true
	hasDefault := false
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CaseClause)
		var arm map[string]bool
		if clause.List == nil {
			hasDefault = true
			arm = subtract(cur, caseValues(ex, s.Body.List, typ))
		} else {
			arm = map[string]bool{}
			for _, v := range clause.List {
				if n := ex.constName(v, typ); n != "" {
					arm[n] = true
					covered[n] = true
				}
			}
			arm = intersect(cloneSet(arm), cur)
		}
		armStates, armKinds := r.states, r.kinds
		if sort == "state" {
			armStates = arm
		} else {
			armKinds = arm
		}
		sub := ex.walkStmts(clause.Body, armStates, armKinds, r.pass)
		r.drafts = append(r.drafts, sub.drafts...)
		r.drafts = append(r.drafts, &draft{
			states: sub.states, kinds: sub.kinds, pos: clause.Pos(),
			at: sub.pass, open: !sub.terminated,
		})
		if !sub.terminated {
			allTerminated = false
		}
	}
	remaining := subtract(cur, covered)
	if hasDefault {
		remaining = map[string]bool{}
	}
	if sort == "state" {
		r.states = remaining
	} else {
		r.kinds = remaining
	}
	if allTerminated && len(remaining) == 0 {
		r.terminated = true
	}
}

// guardFor returns the current guard set for the given sort.
func guardFor(sort string, r *walkResult) map[string]bool {
	if sort == "state" {
		return r.states
	}
	return r.kinds
}

// caseValues unions the constant names of every non-default clause.
func caseValues(ex *extractor, clauses []ast.Stmt, typ types.Type) map[string]bool {
	all := map[string]bool{}
	for _, cc := range clauses {
		for _, v := range cc.(*ast.CaseClause).List {
			if n := ex.constName(v, typ); n != "" {
				all[n] = true
			}
		}
	}
	return all
}

// simpleStmt processes a non-branching statement: record the handlers
// its Sends reach, walk the continuations it schedules, and collect
// atoms.
func (ex *extractor) simpleStmt(stmt ast.Stmt, states, kinds map[string]bool, add func(atoms), r *walkResult) {
	ex.scanSites(stmt, func(call *ast.CallExpr, site SiteKind, lit *ast.CompositeLit) {
		arms, ok := ex.msgs.Arms(lit, ex.defs)
		if !ok {
			if ex.err == nil {
				ex.err = fmt.Errorf("atlas: %s: message kind does not resolve to %s constants", ex.posString(lit.Pos()), MsgKindType)
			}
			return
		}
		if site == SendSite {
			a := newAtoms()
			for _, arm := range arms {
				for _, name := range arm.Methods {
					a.sends[name] = true
				}
			}
			add(a)
			return
		}
		// A continuation: the arm runs later in this controller. An arm
		// that calls another handler is that call (an action); any other
		// arm method is this handler's code, walked in place.
		for _, arm := range arms {
			for _, name := range arm.Methods {
				fn := findMethod(ex.files, arm.Recv, name)
				if ex.isHandler(name) || fn == nil || ex.depth > 4 {
					a := newAtoms()
					a.actions[name] = true
					add(a)
					continue
				}
				sub := ex.walkInline(fn, states, kinds, r.pass)
				r.drafts = append(r.drafts, sub.drafts...)
				add(sub.pass)
			}
		}
	})
	add(ex.collectAtoms(stmt))
}

// walkInline walks a continuation method's body as part of the current
// handler, resolving message kinds through its own locals.
func (ex *extractor) walkInline(fn *ast.FuncDecl, states, kinds map[string]bool, seed atoms) walkResult {
	saved := ex.defs
	ex.defs = LocalDefs(ex.info, fn)
	ex.depth++
	res := ex.walkStmts(fn.Body.List, states, kinds, seed)
	ex.depth--
	ex.defs = saved
	return res
}

// isHandler reports whether name is one of the controller's handlers.
func (ex *extractor) isHandler(name string) bool {
	for _, h := range ex.spec.Handlers {
		if h == name {
			return true
		}
	}
	return false
}

// scanSites finds the outermost calls carrying a message literal — Sends
// and continuations — without entering function literals.
func (ex *extractor) scanSites(n ast.Node, f func(*ast.CallExpr, SiteKind, *ast.CompositeLit)) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if site, lit := ex.msgs.Site(call); site != NoSite {
			f(call, site, lit)
			return false
		}
		return true
	})
}

// recvPkg resolves the defining package of a method call's receiver's
// named type (after pointer deref), or nil.
func (ex *extractor) recvPkg(sel *ast.SelectorExpr) *types.Package {
	tv, ok := ex.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil {
		return nil
	}
	return n.Obj().Pkg()
}

// collectAtoms gathers next-states and actions from one statement (sends
// are simpleStmt's), skipping FuncLits, comparisons, and observe hooks.
// An action is a method call on a protocol or cache type; a call through
// a function-typed field or variable is not.
func (ex *extractor) collectAtoms(stmt ast.Stmt) atoms {
	a := newAtoms()
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // stored closures
		case *ast.BinaryExpr:
			if v.Op == token.EQL || v.Op == token.NEQ {
				return false // comparisons are guards, not transitions
			}
		case *ast.AssignStmt:
			// A state constant installed into a persistent structure
			// (field or element) is a next-state; assignments to plain
			// local variables are reads.
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				if _, plain := lhs.(*ast.Ident); plain {
					continue
				}
				if n := ex.constName(v.Rhs[i], ex.stateType); n != "" {
					a.next[n] = true
				}
			}
			// Continue into children for calls; constants directly under
			// ident-LHS assignments are filtered in the Ident case below.
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if strings.HasPrefix(name, "observe") {
					return false
				}
				pkg := ex.recvPkg(sel)
				s, isMethod := ex.info.Selections[sel]
				isMethod = isMethod && s.Kind() == types.MethodVal
				if isMethod && pkg != nil && (pkg == ex.pkg || pkg.Path() == cachePkg) && !excludeActions[name] {
					a.actions[name] = true
				}
			}
			// State constants passed to helpers (setUnit/downUnit/...)
			// are installed states.
			for _, arg := range v.Args {
				if n := ex.constName(arg, ex.stateType); n != "" {
					a.next[n] = true
				}
			}
		}
		return true
	}
	// Filter plain-ident initializations (st := wi) before inspecting.
	ast.Inspect(stmt, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			allIdent := true
			for _, l := range as.Lhs {
				if _, ok := l.(*ast.Ident); !ok {
					allIdent = false
				}
			}
			if allIdent {
				// Walk only the RHS subtrees for calls, not constants.
				for _, rhs := range as.Rhs {
					if ex.constName(rhs, ex.stateType) != "" {
						continue
					}
					ast.Inspect(rhs, visit)
				}
				return false
			}
		}
		return visit(n)
	})
	return a
}

// cond classifies a guard condition into a state-constant set, a
// kind-constant set, and purity. A pure condition constrains only the
// guard value; any other conjunct (nil checks, flags, counters) makes it
// impure and the walker merges instead of partitioning.
func (ex *extractor) cond(e ast.Expr) (states, kinds map[string]bool, pure bool) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return ex.cond(v.X)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.EQL, token.NEQ:
			name, typ := "", types.Type(nil)
			for _, pair := range [2][2]ast.Expr{{v.X, v.Y}, {v.Y, v.X}} {
				if n := ex.constName(pair[1], ex.stateType); n != "" && pureRead(pair[0]) {
					name, typ = n, ex.stateType
					break
				}
				if n := ex.constName(pair[1], ex.kindType); n != "" && pureRead(pair[0]) {
					name, typ = n, ex.kindType
					break
				}
			}
			if name == "" {
				return nil, nil, false
			}
			set := map[string]bool{name: true}
			if v.Op == token.NEQ {
				if typ == ex.stateType {
					set = subtract(ex.universe(ex.stateNames), set)
				} else {
					set = subtract(ex.universe(ex.kindNames), set)
				}
			}
			if typ == ex.stateType {
				return set, nil, true
			}
			return nil, set, true
		case token.LOR:
			ls, lk, lp := ex.cond(v.X)
			rs, rk, rp := ex.cond(v.Y)
			if !lp || !rp {
				return nil, nil, false
			}
			if ls != nil && rs != nil && lk == nil && rk == nil {
				return union(ls, rs), nil, true
			}
			if lk != nil && rk != nil && ls == nil && rs == nil {
				return nil, union(lk, rk), true
			}
			return nil, nil, false
		case token.LAND:
			ls, lk, lp := ex.cond(v.X)
			rs, rk, rp := ex.cond(v.Y)
			if !lp || !rp {
				return nil, nil, false
			}
			return intersect(ls, rs), intersect(lk, rk), true
		}
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			s, k, p := ex.cond(v.X)
			if !p {
				return nil, nil, false
			}
			if s != nil {
				return subtract(ex.universe(ex.stateNames), s), k, true
			}
			if k != nil {
				return s, subtract(ex.universe(ex.kindNames), k), true
			}
		}
	}
	return nil, nil, false
}

// pureRead reports whether e is a side-effect-free guard-value read.
func pureRead(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return pureRead(v.X)
	case *ast.IndexExpr:
		return pureRead(v.X)
	case *ast.ParenExpr:
		return pureRead(v.X)
	}
	return false
}

func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func elseStmts(e ast.Stmt) []ast.Stmt {
	switch v := e.(type) {
	case *ast.BlockStmt:
		return v.List
	default:
		return []ast.Stmt{v}
	}
}

// Set helpers. nil = unconstrained.

func cloneSet(s map[string]bool) map[string]bool {
	if s == nil {
		return nil
	}
	c := map[string]bool{}
	for k := range s {
		c[k] = true
	}
	return c
}

func intersect(a, b map[string]bool) map[string]bool {
	if a == nil {
		return cloneSet(b)
	}
	if b == nil {
		return cloneSet(a)
	}
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func union(a, b map[string]bool) map[string]bool {
	out := cloneSet(a)
	if out == nil {
		out = map[string]bool{}
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func subtract(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if !b[k] {
			out[k] = true
		}
	}
	return out
}

// orUniverse materializes a nil (unconstrained) set as the universe.
func orUniverse(s map[string]bool, universe []string) map[string]bool {
	if s != nil {
		return s
	}
	out := map[string]bool{}
	for _, n := range universe {
		out[n] = true
	}
	return out
}
