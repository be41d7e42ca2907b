package liveness

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"denovosync/internal/lint/atlas"
)

// ruleUnansweredRequest: every consumed request is answered (replied,
// forwarded), parked on a chain, or fail-stopped, on all control paths.
// A request is a pointer-to-controller parameter (the requester) or a
// queued request record (a chain-element struct parameter).
func ruleUnansweredRequest(g *Graph, p *pkgModel, in *inclusion) {
	for _, m := range sortedMethods(in) {
		if m.kind != "message" {
			continue
		}
		reqs := requesterParams(p, m)
		all := reqs.all()
		if len(all) == 0 {
			continue
		}
		objs := make([]types.Object, 0, len(all))
		for o := range all {
			objs = append(objs, o)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].Name() < objs[j].Name() })
		for _, obj := range objs {
			ck := &answerCheck{p: p, in: in, memo: map[string]bool{}, inProgress: map[string]bool{}}
			r := ck.analyzeMethod(m, map[types.Object]bool{obj: true})
			answered := r.ok && (!r.falls || r.answered)
			ob := Obligation{
				Rule:    "unanswered-request",
				Subject: m.id() + "(" + obj.Name() + ")",
				Pos:     p.posString(m.decl.Pos()),
			}
			if reason, okA := p.assumeFor(m.decl.Pos()); okA && !answered {
				ob.Status = "discharged"
				ob.By = "assumed: " + reason
			} else if answered {
				ob.Status = "discharged"
				ob.By = "answered, parked, or fail-stopped on all paths"
			} else {
				ob.Status = "violated"
				pos := ck.violPos
				if pos == token.NoPos {
					pos = m.decl.Body.Rbrace
				}
				g.Findings = append(g.Findings, Finding{
					Rule:    "unanswered-request",
					Pos:     p.posString(pos),
					Message: fmt.Sprintf("request %s consumed by %s is dropped on this path: not answered, parked, or fail-stopped", obj.Name(), m.id()),
				})
			}
			g.Obligations = append(g.Obligations, ob)
		}
	}
}

// answerCheck carries one rule run's state: the memo table for
// propagated helper calls and the first violating exit position.
type answerCheck struct {
	p          *pkgModel
	in         *inclusion
	memo       map[string]bool
	inProgress map[string]bool
	violPos    token.Pos
}

// pathResult summarizes a statement (or list): ok means every
// terminating path inside answered first; falls means control can fall
// past it; answered describes the fall path.
type pathResult struct {
	ok       bool
	falls    bool
	answered bool
}

func (ck *answerCheck) analyzeMethod(m *method, req map[types.Object]bool) pathResult {
	fr := &answerFrame{ck: ck, m: m, req: req, defs: ck.p.localDefsCache(m)}
	return fr.list(m.decl.Body.List, false)
}

// answerFrame is the per-method analysis frame (requester object set and
// local definitions are method-scoped).
type answerFrame struct {
	ck   *answerCheck
	m    *method
	req  map[types.Object]bool
	defs map[types.Object][]ast.Expr
}

func (fr *answerFrame) list(stmts []ast.Stmt, answeredIn bool) pathResult {
	answered := answeredIn
	ok := true
	for _, s := range stmts {
		r := fr.stmt(s, answered)
		ok = ok && r.ok
		if !r.falls {
			return pathResult{ok: ok, falls: false}
		}
		answered = r.answered
	}
	return pathResult{ok: ok, falls: true, answered: answered}
}

func (fr *answerFrame) stmt(s ast.Stmt, answered bool) pathResult {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		if !answered {
			if fr.ck.violPos == token.NoPos {
				fr.ck.violPos = v.Pos()
			}
			return pathResult{ok: false, falls: false}
		}
		return pathResult{ok: true, falls: false}
	case *ast.BlockStmt:
		return fr.list(v.List, answered)
	case *ast.IfStmt:
		if v.Init != nil {
			r := fr.stmt(v.Init, answered)
			answered = answered || r.answered
		}
		then := fr.list(v.Body.List, answered)
		els := pathResult{ok: true, falls: true, answered: answered}
		if v.Else != nil {
			els = fr.stmt(v.Else, answered)
		}
		return merge(then, els)
	case *ast.SwitchStmt:
		if v.Init != nil {
			r := fr.stmt(v.Init, answered)
			answered = answered || r.answered
		}
		return fr.switchArms(v.Tag, v.Body, answered)
	case *ast.TypeSwitchStmt:
		return fr.switchArms(nil, v.Body, answered)
	case *ast.ForStmt:
		body := fr.list(v.Body.List, answered)
		// The loop may run zero times: answers inside do not cover the
		// fall path; returns inside still must be answered.
		return pathResult{ok: body.ok, falls: true, answered: answered}
	case *ast.RangeStmt:
		body := fr.list(v.Body.List, answered)
		return pathResult{ok: body.ok, falls: true, answered: answered}
	case *ast.ExprStmt:
		if isPanic(v.X) {
			return pathResult{ok: true, falls: false}
		}
		if fr.answersExpr(v.X) {
			answered = true
		}
		return pathResult{ok: true, falls: true, answered: answered}
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			if fr.answersExpr(rhs) {
				answered = true
			}
		}
		return pathResult{ok: true, falls: true, answered: answered}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt, *ast.BranchStmt, *ast.SendStmt:
		return pathResult{ok: true, falls: true, answered: answered}
	}
	return pathResult{ok: true, falls: true, answered: answered}
}

// merge combines two alternative branches.
func merge(a, b pathResult) pathResult {
	out := pathResult{ok: a.ok && b.ok, falls: a.falls || b.falls}
	switch {
	case a.falls && b.falls:
		out.answered = a.answered && b.answered
	case a.falls:
		out.answered = a.answered
	case b.falls:
		out.answered = b.answered
	}
	return out
}

// switchArms analyzes a switch body; a non-exhaustive switch gets a
// virtual empty arm for the skipped-values path.
func (fr *answerFrame) switchArms(tag ast.Expr, body *ast.BlockStmt, answered bool) pathResult {
	results := []pathResult{}
	hasDefault := false
	var caseConsts []string
	for _, cc := range body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			hasDefault = true
		}
		for _, e := range clause.List {
			if name := fr.constNameOf(e); name != "" {
				caseConsts = append(caseConsts, name)
			}
		}
		results = append(results, fr.list(clause.Body, answered))
	}
	exhaustive := hasDefault
	if !exhaustive && tag != nil {
		exhaustive = fr.coversEnum(tag, caseConsts)
	}
	if !exhaustive {
		results = append(results, pathResult{ok: true, falls: true, answered: answered})
	}
	if len(results) == 0 {
		return pathResult{ok: true, falls: true, answered: answered}
	}
	out := results[0]
	for _, r := range results[1:] {
		out = merge(out, r)
	}
	return out
}

func (fr *answerFrame) constNameOf(e ast.Expr) string {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	if c, ok := fr.ck.p.info.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}

// coversEnum reports whether the case constants cover every declared
// constant of the tag's named type (so the switch is exhaustive).
func (fr *answerFrame) coversEnum(tag ast.Expr, caseConsts []string) bool {
	tv, ok := fr.ck.p.info.Types[tag]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	scopes := []*types.Scope{fr.ck.p.tpkg.Scope()}
	if named.Obj().Pkg() != nil && named.Obj().Pkg() != fr.ck.p.tpkg {
		scopes = append(scopes, named.Obj().Pkg().Scope())
	}
	covered := map[string]bool{}
	for _, c := range caseConsts {
		covered[c] = true
	}
	total := 0
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !types.Identical(c.Type(), named) {
				continue
			}
			total++
			if !covered[c.Name()] {
				return false
			}
		}
	}
	return total > 0
}

// answersExpr reports whether evaluating e answers the request: a Send
// mentioning the requester, a park (append-to-chain) mentioning it, a
// continuation whose arm answers it, or a propagated helper call.
func (fr *answerFrame) answersExpr(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	p := fr.ck.p
	// append(chain, ... requester ...): parked.
	if isAppend(call) && len(call.Args) >= 2 {
		if f := p.resolveFieldExpr(call.Args[0], fr.defs, 0); f != nil {
			if _, isChain := p.chains[f]; isChain && p.mentionsObj(call, fr.req) {
				return true
			}
		}
	}
	switch site, lit := p.msgs.Site(call); site {
	case atlas.SendSite:
		return p.mentionsObj(call, fr.req)
	case atlas.ContSite:
		return fr.continuationAnswers(lit)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	// Same-controller helper call propagating the requester.
	if recv := p.recvControllerName(sel); recv == fr.m.recvName {
		callee := p.methodByRecv(recv, name)
		if callee == nil {
			return false
		}
		return fr.ck.propagates(callee, call, fr.req, fr.p())
	}
	return false
}

func (fr *answerFrame) p() *pkgModel { return fr.ck.p }

// continuationAnswers reports whether a message the controller schedules
// to itself carries the requester into an arm that answers it on all
// paths: every kind the literal can hold must have an arm call whose
// arguments read the requester-carrying fields, and whose callee answers.
func (fr *answerFrame) continuationAnswers(lit *ast.CompositeLit) bool {
	p := fr.ck.p
	fields := atlas.FieldsMentioning(lit, func(e ast.Expr) bool { return p.mentionsObj(e, fr.req) })
	arms, ok := p.msgs.Arms(lit, fr.defs)
	if len(fields) == 0 || !ok || len(arms) == 0 {
		return false
	}
	for _, arm := range arms {
		answered := false
		for i, call := range arm.Calls {
			callee := p.methodByRecv(arm.Recv, arm.Methods[i])
			if callee == nil {
				continue
			}
			var idxs []int
			for j, a := range call.Args {
				if arm.ReadsFields(p.info, a, fields) {
					idxs = append(idxs, j)
				}
			}
			if fr.ck.answersVia(callee, idxs) {
				answered = true
			}
		}
		if !answered {
			return false
		}
	}
	return true
}

// propagates reports whether a helper call forwards the requester into
// the callee and the callee answers it on all paths.
func (ck *answerCheck) propagates(callee *method, call *ast.CallExpr, req map[types.Object]bool, p *pkgModel) bool {
	var idxs []int
	for i, a := range call.Args {
		if p.mentionsObj(a, req) {
			idxs = append(idxs, i)
		}
	}
	return ck.answersVia(callee, idxs)
}

// answersVia reports whether callee answers, on all paths, the requester
// it receives in the parameters at idxs. Memoized per (callee, parameter
// set); in-progress recursion is conservatively "not answered".
func (ck *answerCheck) answersVia(callee *method, idxs []int) bool {
	params := flatParams(ck.p, callee.decl)
	calleeReq := map[types.Object]bool{}
	for _, i := range idxs {
		if i < len(params) {
			calleeReq[params[i]] = true
		}
	}
	if len(calleeReq) == 0 {
		return false
	}
	keyParts := make([]string, len(idxs))
	for i, ix := range idxs {
		keyParts[i] = fmt.Sprint(ix)
	}
	key := callee.id() + ":" + strings.Join(keyParts, ",")
	if v, ok := ck.memo[key]; ok {
		return v
	}
	if ck.inProgress[key] {
		return false
	}
	ck.inProgress[key] = true
	r := ck.analyzeInner(callee, calleeReq)
	delete(ck.inProgress, key)
	ans := r.ok && (!r.falls || r.answered)
	ck.memo[key] = ans
	return ans
}

// analyzeInner runs the frame analysis on a callee without clobbering
// the outer violation position.
func (ck *answerCheck) analyzeInner(m *method, req map[types.Object]bool) pathResult {
	saved := ck.violPos
	fr := &answerFrame{ck: ck, m: m, req: req, defs: ck.p.localDefsCache(m)}
	r := fr.list(m.decl.Body.List, false)
	ck.violPos = saved
	return r
}

// flatParams returns a method's parameter objects in declaration order.
func flatParams(p *pkgModel, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return out
	}
	for _, f := range decl.Type.Params.List {
		for _, name := range f.Names {
			out = append(out, p.info.Defs[name])
		}
	}
	return out
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
