package liveness

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"strings"

	"denovosync/internal/lint"
	"denovosync/internal/lint/atlas"
)

// Controller names one protocol controller inside an analyzed package.
type Controller struct {
	Name     string   // node prefix, e.g. "denovo.L1"
	Recv     string   // receiver type name within the package
	Handlers []string // declared message-arm methods (entry points)
}

// Package names one package to certify and its controllers.
type Package struct {
	Path        string
	Controllers []Controller
}

// Spec is the full certification target.
type Spec []Package

// target is one handler a Send's message reaches (through the message
// table).
type target struct {
	typeName string // receiver type name ("L1", "Registry")
	method   string
}

// sendSite is one Net.Send call.
type sendSite struct {
	pos     token.Pos
	classes []string // resolved class constant names ("?" if unresolved)
	targets []target
}

// callSite is one same-controller local method call.
type callSite struct {
	pos    token.Pos
	callee string
}

// parkSite is one append onto a park chain.
type parkSite struct {
	pos   token.Pos
	chain *chainInfo
	expr  *ast.CallExpr // the append call (for requester-mention checks)
	conds []ast.Expr    // enclosing if conditions, innermost last
}

// dischargeSite is one drain of a park chain: a ranged wakeup loop or a
// head-of-queue pop.
type dischargeSite struct {
	pos   token.Pos
	chain *chainInfo
	kind  string // "range" or "pop"
}

// growthSite is one unbounded-growth candidate write to a counter field
// inside a masked-update function (backoff-clamped rule).
type growthSite struct {
	pos    token.Pos
	field  *types.Var
	masked bool // the growth itself is mask-bounded
}

// chainInfo is one park chain (slice / map-of-slice field whose elements
// carry continuations or parked requests).
type chainInfo struct {
	id    string // "denovo.wtxn.parked"
	field *types.Var
	elem  string
}

// resourceInfo is one finite allocation table: a map field of per-key
// records, a paged table of record pointers (a generic table whose page
// type is an array of record pointers, found through its methods), or
// an outstanding file (file) — a slice field of record pointers that a
// drop helper removes entries from (see scanDropHelpers).
type resourceInfo struct {
	id     string
	field  *types.Var
	file   bool
	allocs []token.Pos
	frees  []token.Pos
}

// method carries the extracted facts of one controller method.
type method struct {
	controller string
	recvName   string
	name       string
	decl       *ast.FuncDecl
	kind       string // message | entry | helper ("" until classified)

	sends      []*sendSite
	calls      []*callSite
	parks      []*parkSite
	discharges []*dischargeSite
	growths    []*growthSite
	maskedUpd  bool       // contains a masked counter update
	maskType   types.Type // the masked counter's named type

	defsCache map[types.Object][]ast.Expr
}

func (m *method) id() string { return m.controller + "." + m.name }

// pkgModel is the extracted model of one package.
type pkgModel struct {
	pkgName string // short name ("denovo")
	pkgPath string
	fset    *token.FileSet
	info    *types.Info
	tpkg    *types.Package
	files   []*ast.File

	controllers map[string]Controller // recv type name -> controller
	recvTypes   map[string]*types.Named
	methods     map[string]*method // "Recv.name" -> method
	chains      map[*types.Var]*chainInfo
	resources   []*resourceInfo
	// recordSlices are the slice-of-record-pointer fields: outstanding
	// files once a drop helper is found for them. drops maps each drop
	// helper ("Recv.name") to the file it removes entries from.
	recordSlices map[*types.Var]*resourceInfo
	drops        map[string]*resourceInfo
	funcDecls    map[string]*ast.FuncDecl // package-level functions
	assumed      map[string]string        // "file.go:line" -> reason
	assumes      []Assume

	// bound maps each continuation field bound exactly once, in a New*
	// constructor, to the controller methods its binding calls.
	bound map[*types.Var]*boundCont

	// msgs is the package's message table (see atlas.MsgTable).
	msgs *atlas.MsgTable
	// inlining guards continuation methods walked in place against
	// recursion.
	inlining map[*method]bool
	// err is the first message literal whose kind does not resolve.
	err error
}

// boundCont is a continuation field's fixed binding: a method value, or a
// function literal that only calls methods of the same controller. Every
// use of the field stands for calls to those methods.
type boundCont struct {
	recv    string   // controller recv type name
	callees []string // method names, in binding order
}

func (p *pkgModel) posString(pos token.Pos) string {
	ps := p.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(ps.Filename), ps.Line)
}

// methodByRecv returns the extracted method recv.name, or nil.
func (p *pkgModel) methodByRecv(recv, name string) *method {
	return p.methods[recv+"."+name]
}

// extractPackage builds the model of one package.
func extractPackage(fset *token.FileSet, files []*ast.File, tpkg *types.Package, info *types.Info, spec Package) (*pkgModel, error) {
	p := &pkgModel{
		pkgName:      path.Base(spec.Path),
		pkgPath:      spec.Path,
		fset:         fset,
		info:         info,
		tpkg:         tpkg,
		files:        files,
		controllers:  map[string]Controller{},
		recvTypes:    map[string]*types.Named{},
		methods:      map[string]*method{},
		chains:       map[*types.Var]*chainInfo{},
		recordSlices: map[*types.Var]*resourceInfo{},
		drops:        map[string]*resourceInfo{},
		funcDecls:    map[string]*ast.FuncDecl{},
		assumed:      map[string]string{},
		bound:        map[*types.Var]*boundCont{},
		inlining:     map[*method]bool{},
	}
	for _, c := range spec.Controllers {
		p.controllers[c.Recv] = c
		obj := tpkg.Scope().Lookup(c.Recv)
		if obj == nil {
			return nil, fmt.Errorf("liveness: controller type %s not found in %s", c.Recv, spec.Path)
		}
		n, ok := obj.Type().(*types.Named)
		if !ok {
			return nil, fmt.Errorf("liveness: controller %s in %s is not a named type", c.Recv, spec.Path)
		}
		p.recvTypes[c.Recv] = n
	}
	var recvs []string
	for _, c := range spec.Controllers {
		recvs = append(recvs, c.Recv)
	}
	msgs, err := atlas.NewMsgTable(files, tpkg, info, recvs)
	if err != nil {
		return nil, err
	}
	p.msgs = msgs
	p.scanStructs()
	p.scanAssumes()
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Recv == nil || len(fn.Recv.List) == 0 {
				p.funcDecls[fn.Name.Name] = fn
				continue
			}
			recv := recvTypeName(fn)
			c, ok := p.controllers[recv]
			if !ok || fn.Body == nil {
				continue
			}
			m := &method{controller: c.Name, recvName: recv, name: fn.Name.Name, decl: fn}
			p.methods[recv+"."+fn.Name.Name] = m
		}
	}
	p.scanBoundContinuations()
	p.scanDropHelpers()
	for _, m := range p.methods {
		p.extractMethod(m)
	}
	if p.err != nil {
		return nil, p.err
	}
	return p, nil
}

// scanBoundContinuations finds the controllers' continuation fields that
// are written exactly once in the package, by an assignment inside a New*
// constructor, and records what that binding calls (see boundCont). A
// field written anywhere else is a hook that can change at run time, so
// it resolves to nothing.
func (p *pkgModel) scanBoundContinuations() {
	writes := map[*types.Var]int{}
	binding := map[*types.Var]ast.Expr{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctor := fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "New")
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range v.Lhs {
						if fv := p.fieldOf(lhs); fv != nil {
							writes[fv]++
							if ctor && len(v.Lhs) == len(v.Rhs) {
								binding[fv] = v.Rhs[i]
							}
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := v.Key.(*ast.Ident); ok {
						if fv, ok := p.info.Uses[id].(*types.Var); ok && fv.IsField() {
							writes[fv]++
						}
					}
				}
				return true
			})
		}
	}
	for fv, rhs := range binding {
		if writes[fv] != 1 {
			continue
		}
		if _, ok := fv.Type().Underlying().(*types.Signature); !ok {
			continue
		}
		if b := p.continuationCallees(rhs); b != nil {
			p.bound[fv] = b
		}
	}
}

// continuationCallees resolves a binding expression — a controller method
// value, or a function literal whose statements are all calls of methods
// of one controller — to those methods, or nil.
func (p *pkgModel) continuationCallees(e ast.Expr) *boundCont {
	method := func(e ast.Expr) (recv, name string) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", ""
		}
		if s, ok := p.info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
			return "", ""
		}
		recv = p.recvControllerName(sel)
		if recv == "" || p.methodByRecv(recv, sel.Sel.Name) == nil {
			return "", ""
		}
		return recv, sel.Sel.Name
	}
	if recv, name := method(e); recv != "" {
		b := &boundCont{recv: recv}
		if interestingCallee(name) {
			b.callees = []string{name}
		}
		return b
	}
	lit, ok := e.(*ast.FuncLit)
	if !ok || len(lit.Body.List) == 0 {
		return nil
	}
	b := &boundCont{}
	for _, st := range lit.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return nil
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return nil
		}
		recv, name := method(call.Fun)
		if recv == "" || (b.recv != "" && recv != b.recv) {
			return nil
		}
		b.recv = recv
		if interestingCallee(name) {
			b.callees = append(b.callees, name)
		}
	}
	return b
}

// recvTypeName returns a method's receiver type name (pointer-stripped).
func recvTypeName(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// scanAssumes records every //protolive:assume(reason) in the package,
// keyed by the lines it blesses (shared directive scoping).
func (p *pkgModel) scanAssumes() {
	blessed := lint.BlessedLines(p.fset, p.files, lint.AssumeDirective)
	seen := map[string]bool{}
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := lint.AssumeDirective(c.Text); ok {
					pos := p.posString(c.Pos())
					if !seen[pos] {
						seen[pos] = true
						p.assumes = append(p.assumes, Assume{Pos: pos, Reason: reason})
					}
				}
			}
		}
	}
	for file, lines := range blessed {
		base := filepath.Base(file)
		for line, reason := range lines {
			p.assumed[fmt.Sprintf("%s:%d", base, line)] = reason
		}
	}
}

// assumeFor returns the audited escape reason blessing pos, if any.
func (p *pkgModel) assumeFor(pos token.Pos) (string, bool) {
	r, ok := p.assumed[p.posString(pos)]
	return r, ok
}

// scanStructs finds every park chain and finite resource declared by the
// package's struct types.
func (p *pkgModel) scanStructs() {
	scope := p.tpkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if elem, ok := p.chainElem(f.Type()); ok {
				p.chains[f] = &chainInfo{
					id:    p.pkgName + "." + name + "." + f.Name(),
					field: f,
					elem:  elem,
				}
				continue
			}
			id := p.pkgName + "." + name + "." + f.Name()
			if m, ok := f.Type().(*types.Map); ok && p.isRecordPtr(m.Elem()) {
				p.resources = append(p.resources, &resourceInfo{id: id, field: f})
			}
			if p.isPagedTable(f.Type()) {
				p.resources = append(p.resources, &resourceInfo{id: id, field: f})
			}
			if sl, ok := f.Type().(*types.Slice); ok && p.isRecordPtr(sl.Elem()) {
				p.recordSlices[f] = &resourceInfo{id: id, field: f}
			}
		}
	}
}

// chainElem classifies a field type as a park chain: a slice (or
// map-of-slice) whose element is a func or a package struct carrying a
// continuation or a parked requester pointer.
func (p *pkgModel) chainElem(t types.Type) (string, bool) {
	if m, ok := t.(*types.Map); ok {
		t = m.Elem()
	}
	s, ok := t.(*types.Slice)
	if !ok {
		return "", false
	}
	e := s.Elem()
	if _, ok := e.Underlying().(*types.Signature); ok {
		return "func", true
	}
	n, ok := e.(*types.Named)
	if !ok || n.Obj().Pkg() != p.tpkg {
		return "", false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if _, ok := ft.Underlying().(*types.Signature); ok {
			return n.Obj().Name(), true
		}
		if p.controllerPtr(ft) != "" {
			return n.Obj().Name(), true
		}
	}
	return "", false
}

// controllerPtr returns the controller recv name if t is a pointer to a
// declared controller type, else "".
func (p *pkgModel) controllerPtr(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	n, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	if _, ok := p.controllers[n.Obj().Name()]; ok && n.Obj().Pkg() == p.tpkg {
		return n.Obj().Name()
	}
	return ""
}

// isRecordPtr reports a pointer to a package struct: the value type of a
// finite allocation table.
func (p *pkgModel) isRecordPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := ptr.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() != p.tpkg {
		return false
	}
	_, ok = n.Underlying().(*types.Struct)
	return ok
}

// isPagedTable reports whether t is a paged table of record pointers: an
// instance of a generic type whose one type argument is an array of
// record pointers (the page). A method of the table returns a page, and
// a store into a page's element files a record.
func (p *pkgModel) isPagedTable(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.TypeArgs().Len() != 1 {
		return false
	}
	a, ok := n.TypeArgs().At(0).Underlying().(*types.Array)
	return ok && p.isRecordPtr(a.Elem())
}

// scanDropHelpers finds the controller methods that remove an arbitrary
// entry from a slice of record pointers: a store into an element
// (f[i] = f[last]) and a shrink (f = f[:last]) in one body. Such a slice
// is an outstanding file — a finite allocation table whose appends are
// allocations and whose drop-helper calls are frees. A free list only
// pops its top entry, so it has no element store and stays out.
func (p *pkgModel) scanDropHelpers() {
	for key, m := range p.methods {
		defs := p.localDefsCache(m)
		stored := map[*types.Var]bool{}
		var shrunk []*types.Var
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if f := p.resolveFieldExpr(idx.X, defs, 0); f != nil {
						stored[f] = true
					}
					continue
				}
				sl, ok := as.Rhs[min(i, len(as.Rhs)-1)].(*ast.SliceExpr)
				if !ok {
					continue
				}
				if f := p.resolveFieldExpr(lhs, defs, 0); f != nil && p.resolveFieldExpr(sl.X, defs, 0) == f {
					shrunk = append(shrunk, f)
				}
			}
			return true
		})
		for _, f := range shrunk {
			r, ok := p.recordSlices[f]
			if !ok || !stored[f] {
				continue
			}
			if !r.file {
				r.file = true
				p.resources = append(p.resources, r)
			}
			p.drops[key] = r
		}
	}
}

// fieldOf resolves a selector expression to the struct field it reads,
// or nil.
func (p *pkgModel) fieldOf(e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := p.info.Selections[sel]
	if !ok {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// resolveFieldExpr resolves e — possibly through index expressions, one
// local alias hop (ws := c.disturbs[word]) and a paged table's page
// lookup (pg := r.lines.Page(addr)) — to a struct field. localDefs maps
// local objects to their defining expressions.
func (p *pkgModel) resolveFieldExpr(e ast.Expr, localDefs map[types.Object][]ast.Expr, depth int) *types.Var {
	if depth > 4 {
		return nil
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		return p.resolveFieldExpr(v.X, localDefs, depth+1)
	case *ast.IndexExpr:
		return p.resolveFieldExpr(v.X, localDefs, depth+1)
	case *ast.SliceExpr:
		return p.resolveFieldExpr(v.X, localDefs, depth+1)
	case *ast.SelectorExpr:
		return p.fieldOf(v)
	case *ast.CallExpr:
		sel, ok := v.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s, ok := p.info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
			return nil
		}
		if f := p.resolveFieldExpr(sel.X, localDefs, depth+1); f != nil && p.isPagedTable(f.Type()) {
			return f
		}
	case *ast.Ident:
		obj := p.info.Uses[v]
		if obj == nil {
			return nil
		}
		for _, def := range localDefs[obj] {
			if f := p.resolveFieldExpr(def, localDefs, depth+1); f != nil {
				return f
			}
		}
	}
	return nil
}

// extractMethod walks one method body and fills its fact lists.
func (p *pkgModel) extractMethod(m *method) {
	defs := p.localDefsCache(m)
	p.walkFacts(m, m.decl.Body.List, defs, nil)
	p.scanBackoff(m, defs)
	p.scanResourceOps(m, defs)
}

// walkFacts is the recursive statement walker. conds is the stack of
// enclosing if conditions (for park-guard analysis).
func (p *pkgModel) walkFacts(m *method, stmts []ast.Stmt, defs map[types.Object][]ast.Expr, conds []ast.Expr) {
	for _, stmt := range stmts {
		p.walkFactsStmt(m, stmt, defs, conds)
	}
}

func (p *pkgModel) walkFactsStmt(m *method, stmt ast.Stmt, defs map[types.Object][]ast.Expr, conds []ast.Expr) {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			p.walkFactsStmt(m, s.Init, defs, conds)
		}
		p.factsInExpr(m, s.Cond, defs, conds)
		inner := append(append([]ast.Expr{}, conds...), s.Cond)
		p.walkFacts(m, s.Body.List, defs, inner)
		if s.Else != nil {
			p.walkFactsStmt(m, s.Else, defs, conds)
		}
	case *ast.BlockStmt:
		p.walkFacts(m, s.List, defs, conds)
	case *ast.ForStmt:
		if s.Init != nil {
			p.walkFactsStmt(m, s.Init, defs, conds)
		}
		p.walkFacts(m, s.Body.List, defs, conds)
	case *ast.RangeStmt:
		if f := p.resolveFieldExpr(s.X, defs, 0); f != nil {
			if c, ok := p.chains[f]; ok && containsCall(s.Body) {
				m.discharges = append(m.discharges, &dischargeSite{pos: s.Pos(), chain: c, kind: "range"})
			}
		}
		p.walkFacts(m, s.Body.List, defs, conds)
	case *ast.SwitchStmt:
		if s.Init != nil {
			p.walkFactsStmt(m, s.Init, defs, conds)
		}
		if s.Tag != nil {
			p.factsInExpr(m, s.Tag, defs, conds)
		}
		for _, cc := range s.Body.List {
			p.walkFacts(m, cc.(*ast.CaseClause).Body, defs, conds)
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			p.walkFacts(m, cc.(*ast.CaseClause).Body, defs, conds)
		}
	case *ast.AssignStmt:
		// Park: x = append(x, e) onto a chain field.
		for i, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isAppend(call) && len(call.Args) >= 2 {
				if f := p.resolveFieldExpr(call.Args[0], defs, 0); f != nil {
					if c, ok := p.chains[f]; ok {
						m.parks = append(m.parks, &parkSite{
							pos:   s.Pos(),
							chain: c,
							expr:  call,
							conds: append([]ast.Expr{}, conds...),
						})
					}
				}
			}
			// Pop: x = x[1:] over a chain field.
			if sl, ok := rhs.(*ast.SliceExpr); ok && i < len(s.Lhs) {
				if f := p.resolveFieldExpr(s.Lhs[i], defs, 0); f != nil {
					if fr := p.resolveFieldExpr(sl.X, defs, 0); fr == f {
						if c, ok := p.chains[f]; ok {
							m.discharges = append(m.discharges, &dischargeSite{pos: s.Pos(), chain: c, kind: "pop"})
						}
					}
				}
			}
			p.factsInExpr(m, rhs, defs, conds)
		}
	default:
		// Every other statement: scan contained expressions for sends,
		// continuations, and local calls.
		ast.Inspect(stmt, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if p.factsInExpr(m, e, defs, conds) {
				return false
			}
			return true
		})
	}
}

// factsInExpr records sends, continuations, and local calls
// found in e. Returns true if e was fully handled (no deeper scan
// needed).
func (p *pkgModel) factsInExpr(m *method, e ast.Expr, defs map[types.Object][]ast.Expr, conds []ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		// A bound continuation field stands for the calls its binding
		// makes, wherever the method hands it on or invokes it.
		if b := p.bound[p.fieldOf(sel)]; b != nil && b.recv == m.recvName {
			for _, name := range b.callees {
				m.calls = append(m.calls, &callSite{pos: sel.Pos(), callee: name})
			}
			return true
		}
		return false
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if site, lit := p.msgs.Site(call); site != atlas.NoSite {
		p.messageFacts(m, call, site, lit, defs, conds)
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	// Same-controller local call.
	if recv := p.recvControllerName(sel); recv == m.recvName && interestingCallee(name) {
		if p.methodByRecv(recv, name) != nil {
			m.calls = append(m.calls, &callSite{pos: call.Pos(), callee: name})
		}
	}
	return false
}

// messageFacts records a call carrying a message literal. A Send is a
// message edge to each handler its kind can reach, with the network
// classes the call can use. A continuation — a message the controller
// schedules to itself — runs its arm in this method's context: an arm
// calling a declared handler is a local call edge to it, and any other
// arm method is walked in place, as this method's own code.
func (p *pkgModel) messageFacts(m *method, call *ast.CallExpr, site atlas.SiteKind, lit *ast.CompositeLit, defs map[types.Object][]ast.Expr, conds []ast.Expr) {
	arms, ok := p.msgs.Arms(lit, defs)
	if !ok {
		if p.err == nil {
			p.err = fmt.Errorf("liveness: %s: message kind does not resolve to %s constants", p.posString(lit.Pos()), atlas.MsgKindType)
		}
		return
	}
	if site == atlas.SendSite {
		s := &sendSite{pos: call.Pos(), classes: p.resolveClasses(classArg(p, call), m.decl, defs, 0)}
		for _, arm := range arms {
			for _, name := range arm.Methods {
				if interestingCallee(name) && p.methodByRecv(arm.Recv, name) != nil {
					s.targets = append(s.targets, target{typeName: arm.Recv, method: name})
				}
			}
		}
		m.sends = append(m.sends, s)
		return
	}
	for _, arm := range arms {
		for _, name := range arm.Methods {
			callee := p.methodByRecv(arm.Recv, name)
			if callee == nil || !interestingCallee(name) {
				continue
			}
			if p.isHandler(arm.Recv, name) {
				m.calls = append(m.calls, &callSite{pos: call.Pos(), callee: name})
				continue
			}
			if p.inlining[callee] {
				continue
			}
			p.inlining[callee] = true
			p.walkFacts(m, callee.decl.Body.List, p.localDefsCache(callee), conds)
			delete(p.inlining, callee)
		}
	}
}

// isHandler reports whether recv.name is a declared handler.
func (p *pkgModel) isHandler(recv, name string) bool {
	for _, h := range p.controllers[recv].Handlers {
		if h == name {
			return true
		}
	}
	return false
}

// recvControllerName resolves a method call's receiver to a declared
// controller type name, or "".
func (p *pkgModel) recvControllerName(sel *ast.SelectorExpr) string {
	tv, ok := p.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() != p.tpkg {
		return ""
	}
	if _, ok := p.controllers[n.Obj().Name()]; !ok {
		return ""
	}
	return n.Obj().Name()
}

// interestingCallee filters pure read/naming helpers out of the call
// graph (shared exclusion list with the atlas extractor, plus observe
// hooks and wiring methods).
func interestingCallee(name string) bool {
	if strings.HasPrefix(name, "observe") || strings.HasPrefix(name, "Set") || strings.HasPrefix(name, "New") {
		return false
	}
	return !atlas.ExcludedAction(name)
}

// classArg picks the message-class argument of a Send call: the first
// argument whose static type is a named type ending in "Class".
func classArg(p *pkgModel, call *ast.CallExpr) ast.Expr {
	for _, a := range call.Args {
		tv, ok := p.info.Types[a]
		if !ok || tv.Type == nil {
			continue
		}
		if n, ok := tv.Type.(*types.Named); ok && strings.HasSuffix(n.Obj().Name(), "Class") {
			return a
		}
	}
	return nil
}

// resolveClasses resolves a class expression to the set of constant
// names it can evaluate to: a direct constant, a local variable (union
// of its assignments within fn), or a call to a package-level function
// (union of its return constants).
func (p *pkgModel) resolveClasses(e ast.Expr, fn *ast.FuncDecl, defs map[types.Object][]ast.Expr, depth int) []string {
	if e == nil || depth > 4 {
		return []string{"?"}
	}
	if n := p.classConstName(e); n != "" {
		return []string{n}
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		return p.resolveClasses(v.X, fn, defs, depth+1)
	case *ast.Ident:
		obj := p.info.Uses[v]
		if obj == nil {
			return []string{"?"}
		}
		set := map[string]bool{}
		for _, def := range defs[obj] {
			for _, c := range p.resolveClasses(def, fn, defs, depth+1) {
				set[c] = true
			}
		}
		return classSet(set)
	case *ast.CallExpr:
		var fname string
		switch f := v.Fun.(type) {
		case *ast.Ident:
			fname = f.Name
		case *ast.SelectorExpr:
			fname = f.Sel.Name
		}
		decl, ok := p.funcDecls[fname]
		if !ok || decl.Body == nil {
			return []string{"?"}
		}
		set := map[string]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, r := range ret.Results {
				if c := p.classConstName(r); c != "" {
					set[c] = true
				} else {
					set["?"] = true
				}
			}
			return true
		})
		return classSet(set)
	}
	return []string{"?"}
}

func classSet(set map[string]bool) []string {
	if len(set) == 0 {
		return []string{"?"}
	}
	var out []string
	for c := range set {
		out = append(out, c)
	}
	return out
}

// classConstName resolves e to a class constant name, or "".
func (p *pkgModel) classConstName(e ast.Expr) string {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	if c, ok := p.info.Uses[id].(*types.Const); ok {
		if n, ok := c.Type().(*types.Named); ok && strings.HasSuffix(n.Obj().Name(), "Class") {
			return c.Name()
		}
	}
	return ""
}

// scanBackoff finds masked counter updates and growth writes (the
// backoff-clamped rule's raw material).
func (p *pkgModel) scanBackoff(m *method, defs map[types.Object][]ast.Expr) {
	// Pass 1: masked updates — f = (f + x) & mask, f a named-type field.
	ast.Inspect(m.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 {
			return true
		}
		f := p.fieldOf(as.Lhs[0])
		if f == nil {
			return true
		}
		if _, ok := f.Type().(*types.Named); !ok {
			return true
		}
		if exprHasOp(as.Rhs[0], token.AND) {
			m.maskedUpd = true
			m.maskType = f.Type()
		}
		return true
	})
	if !m.maskedUpd {
		return
	}
	// Pass 2: growth writes to fields of the masked type.
	clamped := p.clampedFields(m)
	ast.Inspect(m.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != 1 {
				return true
			}
			f := p.fieldOf(v.Lhs[0])
			if f == nil || !types.Identical(f.Type(), m.maskType) {
				return true
			}
			grows := v.Tok == token.ADD_ASSIGN
			if v.Tok == token.ASSIGN && exprHasOp(v.Rhs[0], token.ADD) && !exprHasOp(v.Rhs[0], token.AND) {
				grows = true
			}
			if grows {
				m.growths = append(m.growths, &growthSite{
					pos:    v.Pos(),
					field:  f,
					masked: exprHasOp(v.Rhs[0], token.AND) || clamped[f],
				})
			}
		case *ast.IncDecStmt:
			if v.Tok != token.INC {
				return true
			}
			f := p.fieldOf(v.X)
			if f == nil || !types.Identical(f.Type(), m.maskType) {
				return true
			}
			m.growths = append(m.growths, &growthSite{pos: v.Pos(), field: f, masked: clamped[f]})
		}
		return true
	})
}

// clampedFields finds fields with a compare-clamp in m:
// if f > bound { f = bound }.
func (p *pkgModel) clampedFields(m *method) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(m.decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cmp, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || (cmp.Op != token.GTR && cmp.Op != token.GEQ) {
			return true
		}
		f := p.fieldOf(cmp.X)
		if f == nil {
			return true
		}
		for _, st := range ifs.Body.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if p.fieldOf(as.Lhs[0]) == f {
					out[f] = true
				}
			}
		}
		return true
	})
	return out
}

// scanResourceOps records allocation and free sites of finite resource
// tables touched by m: a map's element assignments and deletes, an
// outstanding file's appends and drop-helper calls.
func (p *pkgModel) scanResourceOps(m *method, defs map[types.Object][]ast.Expr) {
	byField := map[*types.Var]*resourceInfo{}
	for _, r := range p.resources {
		byField[r.field] = r
	}
	table := func(e ast.Expr, file bool) *resourceInfo {
		if r := byField[p.resolveFieldExpr(e, defs, 0)]; r != nil && r.file == file {
			return r
		}
		return nil
	}
	ast.Inspect(m.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if r := table(idx.X, false); r != nil {
						r.allocs = append(r.allocs, v.Pos())
					}
					continue
				}
				if call, ok := v.Rhs[min(i, len(v.Rhs)-1)].(*ast.CallExpr); ok && isAppend(call) && len(call.Args) >= 2 {
					if r := table(call.Args[0], true); r != nil && table(lhs, true) == r {
						r.allocs = append(r.allocs, v.Pos())
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if r := p.drops[p.recvControllerName(sel)+"."+sel.Sel.Name]; r != nil {
					r.frees = append(r.frees, v.Pos())
				}
				return true
			}
			id, ok := v.Fun.(*ast.Ident)
			if !ok || id.Name != "delete" || len(v.Args) != 2 {
				return true
			}
			if r := table(v.Args[0], false); r != nil {
				r.frees = append(r.frees, v.Pos())
			}
		}
		return true
	})
}

// localDefsCache memoizes localDefs per method.
func (p *pkgModel) localDefsCache(m *method) map[types.Object][]ast.Expr {
	if m.defsCache == nil {
		m.defsCache = atlas.LocalDefs(p.info, m.decl)
	}
	return m.defsCache
}

func isAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

func containsCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

func exprHasOp(e ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == op {
			found = true
			return false
		}
		return !found
	})
	return found
}

// mentionsObj reports whether e references any of the given objects
// (including inside nested closures).
func (p *pkgModel) mentionsObj(e ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil && objs[obj] {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
