package lpisolate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"denovosync/internal/lint/loader"
)

// context is the ownership situation of the statements being walked.
type context struct {
	// domain is the logical process whose code is executing ("" when the
	// function belongs to no classified owner).
	domain string
	// kind is "regular", "wiring" (New*/Set*/model-listed construction)
	// or "message" (the body of a network-delivery closure, which runs
	// at the destination).
	kind string
	// recvObj is the receiver variable for methods (nil otherwise).
	recvObj types.Object
	// fn names the enclosing function ("mesi.L1.recvInv") for findings
	// and method summaries.
	fn string
}

// hop is one field traversal of an access path, outermost (the accessed
// field) first.
type hop struct {
	ti      *typeInfo // owner of the field; nil for out-of-scope owners
	ownerQ  string
	field   string
	fi      *fieldInfo
	indexed bool // an index/key was applied to this field's value
}

// pathInfo is a resolved access path: the deepest classified location it
// touches plus how it got there.
type pathInfo struct {
	// owner/field identify the classified written (or called-through)
	// location; owner is nil when the path only touches a global.
	owner  *typeInfo
	field  string
	global *globalInfo

	slicedOK    bool
	viaBoundary string
	viaPeer     bool

	baseObj    types.Object
	baseIsRecv bool
	nhops      int
}

type writeEvent struct {
	pos  token.Pos
	ctx  context
	path *pathInfo
}

type callEvent struct {
	pos token.Pos
	ctx context
	// path is the receiver access path (nil for free functions).
	path *pathInfo
	// key is "pkg.Type.Method" or "pkg.Func"; iface lists the candidate
	// keys when the static receiver is an interface.
	key       string
	iface     []string
	funcField bool
	// peerCall marks a mutating-call-shaped peer touch (the callee's
	// receiver is a tile controller other than the caller itself).
	peerCall     bool
	targetDomain string
}

// funcFacts feeds the mutating-method summaries: what a function writes
// of its own receiver's state, and which same-receiver methods it calls.
type funcFacts struct {
	recvWrites []*writeEvent
	recvCalls  []string
}

func (a *analyzer) walkFile(pkg *loader.Package, f *ast.File) {
	pkgName := pkg.Types.Name()
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ctx := a.declContext(pkg, pkgName, fd)
		a.walkBody(fd.Body, ctx, pkg.Info)
	}
}

// declContext computes the ownership context of a top-level function.
func (a *analyzer) declContext(pkg *loader.Package, pkgName string, fd *ast.FuncDecl) context {
	name := fd.Name.Name
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		ctx := context{kind: "regular", fn: pkgName + "." + name}
		if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") {
			ctx.kind = "wiring"
			if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
				if rt := pkg.Info.Types[fd.Type.Results.List[0].Type].Type; rt != nil {
					if n := namedOf(rt); n != nil {
						ctx.domain = a.domainOf(n)
					}
				}
			}
		}
		return ctx
	}
	recv := fd.Recv.List[0]
	var recvObj types.Object
	if len(recv.Names) > 0 {
		recvObj = pkg.Info.Defs[recv.Names[0]]
	}
	rt := pkg.Info.Types[recv.Type].Type
	n := namedOf(rt)
	typeName := "?"
	domain := ""
	if n != nil {
		typeName = n.Obj().Name()
		domain = a.domainOf(n)
	}
	key := pkgName + "." + typeName + "." + name
	kind := "regular"
	if strings.HasPrefix(name, "Set") || strings.HasPrefix(name, "New") ||
		a.model.Wiring[pkgName+"."+typeName+"."+name] {
		kind = "wiring"
	}
	return context{domain: domain, kind: kind, recvObj: recvObj, fn: key}
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// walkBody traverses one function or closure body under ctx.
func (a *analyzer) walkBody(body ast.Node, ctx context, info *types.Info) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Host-coroutine bodies are the thread-discipline analyzer's
			// domain; the machine's go statements launch workload
			// threads, not simulator events.
			return false
		case *ast.FuncLit:
			if a.consumed[n] {
				return false
			}
			a.consumed[n] = true
			a.walkBody(n.Body, ctx, info)
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				a.recordWrite(lhs, false, ctx, info)
			}
		case *ast.IncDecStmt:
			a.recordWrite(n.X, false, ctx, info)
		case *ast.CallExpr:
			a.handleCall(n, ctx, info)
		}
		return true
	})
}

// resolveChain walks an access expression down to its base object,
// collecting the field hops (outermost first).
func (a *analyzer) resolveChain(expr ast.Expr, initialIndex bool, info *types.Info) (hops []hop, base types.Object, ok bool) {
	pendingIndex := initialIndex
	cur := expr
	for {
		switch e := cur.(type) {
		case *ast.ParenExpr:
			cur = e.X
		case *ast.StarExpr:
			cur = e.X
		case *ast.IndexExpr:
			pendingIndex = true
			cur = e.X
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil {
				// Qualified identifier (pkg.Var or pkg.Fn).
				obj := info.Uses[e.Sel]
				return hops, obj, obj != nil
			}
			if sel.Kind() != types.FieldVal {
				// Method value mid-path: opaque.
				return hops, nil, false
			}
			ownerQ := ""
			var ti *typeInfo
			var fi *fieldInfo
			if n := namedOf(sel.Recv()); n != nil {
				ownerQ = qnameOf(n)
				if t, found := a.infos[n.Obj()]; found {
					ti = t
					fi = t.fields[e.Sel.Name]
				}
			}
			hops = append(hops, hop{ti: ti, ownerQ: ownerQ, field: e.Sel.Name, fi: fi, indexed: pendingIndex})
			pendingIndex = false
			cur = e.X
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return hops, obj, obj != nil
		default:
			// Call result, composite literal, index of call, ...: the
			// base is not a storage location we track.
			return hops, nil, false
		}
	}
}

// makePath classifies a resolved chain against the model.
func (a *analyzer) makePath(hops []hop, base types.Object, ctx context, forCall bool) *pathInfo {
	p := &pathInfo{baseObj: base, nhops: len(hops)}
	if base != nil && ctx.recvObj != nil && base == ctx.recvObj {
		p.baseIsRecv = true
	}
	// The written / called-through location: the outermost hop with a
	// classified owner.
	locIdx := -1
	for i, h := range hops {
		if h.ti != nil && h.ti.domain != "" {
			locIdx = i
			p.owner = h.ti
			p.field = h.field
			break
		}
	}
	if locIdx < 0 && base != nil {
		if v, isVar := base.(*types.Var); isVar && v.Pkg() != nil {
			if g, found := a.globals[v.Pkg().Name()+"."+v.Name()]; found {
				p.global = g
			}
		}
	}
	travStart := locIdx + 1
	if forCall {
		travStart = 0
	}
	for i, h := range hops {
		if h.fi != nil && h.ti != nil && a.model.Sliced[h.ti.qname+"."+h.field] && h.indexed {
			p.slicedOK = true
		}
		if i >= travStart && h.ti != nil {
			if h.fi != nil && h.fi.boundary != "" {
				p.viaBoundary = h.fi.boundary
			}
			if h.ti.boundary != "" && i > locIdx {
				p.viaBoundary = h.ti.boundary
			}
			if h.ti.behindBoundary != "" && i > locIdx {
				p.viaBoundary = h.ti.behindBoundary
			}
		}
		if i >= travStart && h.fi != nil {
			if elem := namedElem(h.fi.typ); elem != nil && a.isTileController(elem) {
				p.viaPeer = true
			}
		}
	}
	if base != nil {
		if n := namedOf(derefType(base.Type())); n != nil && a.isTileController(n) && !p.baseIsRecv {
			p.viaPeer = true
		}
	}
	return p
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedElem unwraps containers to a named type (for peer detection).
func namedElem(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// recordWrite registers one assignment target.
func (a *analyzer) recordWrite(lhs ast.Expr, initialIndex bool, ctx context, info *types.Info) {
	if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name == "_" {
		return
	}
	hops, base, ok := a.resolveChain(lhs, initialIndex, info)
	if !ok && len(hops) == 0 {
		return
	}
	p := a.makePath(hops, base, ctx, false)
	if p.owner == nil && p.global == nil {
		return
	}
	ev := &writeEvent{pos: lhs.Pos(), ctx: ctx, path: p}
	a.writes = append(a.writes, ev)
	if p.owner != nil {
		if fi := p.owner.fields[p.field]; fi != nil {
			fi.writes = append(fi.writes, ev)
		}
	}
	if p.global != nil {
		p.global.writes = append(p.global.writes, ev)
	}
	// Receiver-rooted writes feed the method summaries. Message-context
	// writes are excluded: they run at the destination and are accounted
	// as crossings at their own site, not as effects of calling the
	// enclosing method.
	if p.baseIsRecv && !p.viaPeer && ctx.kind != "message" && p.owner != nil {
		a.factsFor(ctx.fn).recvWrites = append(a.factsFor(ctx.fn).recvWrites, ev)
	}
}

func (a *analyzer) factsFor(fn string) *funcFacts {
	f := a.facts[fn]
	if f == nil {
		f = &funcFacts{}
		a.facts[fn] = f
	}
	return f
}

// handleCall classifies one call site and walks its closure arguments in
// the right context.
func (a *analyzer) handleCall(call *ast.CallExpr, ctx context, info *types.Info) {
	fun := ast.Unparen(call.Fun)
	ev := &callEvent{pos: call.Pos(), ctx: ctx}
	switch fn := fun.(type) {
	case *ast.Ident:
		obj := info.Uses[fn]
		if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
			if fn.Name == "delete" && len(call.Args) > 0 {
				a.recordWrite(call.Args[0], true, ctx, info)
			}
			return
		}
		if f, isFunc := obj.(*types.Func); isFunc {
			if f.Pkg() != nil {
				ev.key = f.Pkg().Name() + "." + f.Name()
			}
			ev.targetDomain = a.resultDomain(f)
		} else if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil {
			// Invoking a package-level hook; func-typed locals are
			// same-context continuations and stay untracked.
			if g, found := a.globals[v.Pkg().Name()+"."+v.Name()]; found {
				ev.funcField = true
				ev.path = &pathInfo{global: g}
			}
		}
	case *ast.SelectorExpr:
		sel := info.Selections[fn]
		switch {
		case sel == nil:
			// Qualified call pkg.Fn(...) or package-level hook pkg.Var(...).
			switch o := info.Uses[fn.Sel].(type) {
			case *types.Func:
				if o.Pkg() != nil {
					ev.key = o.Pkg().Name() + "." + o.Name()
				}
				ev.targetDomain = a.resultDomain(o)
			case *types.Var:
				if o.Pkg() != nil {
					if g, found := a.globals[o.Pkg().Name()+"."+o.Name()]; found {
						ev.funcField = true
						ev.path = &pathInfo{global: g}
					}
				}
			}
		case sel.Kind() == types.MethodVal:
			a.resolveMethod(ev, fn, sel, ctx, info)
		case sel.Kind() == types.FieldVal:
			// Invoking a func-typed field.
			ev.funcField = true
			hops, base, _ := a.resolveChain(fn, false, info)
			ev.path = a.makePath(hops, base, ctx, true)
		}
	}

	// Closure-argument contexts.
	litCtx := ctx
	messageCall := a.model.MessageFns[ev.key]
	sanctioned := a.model.Sanctioned[ev.key]
	switch {
	case sanctioned:
		// Event-API callbacks run in the scheduling tile's context.
	case messageCall:
		// The final func argument is the delivery closure: it runs at
		// the destination, so tile mutations inside it are mediated.
	case ev.targetDomain != "" && ev.targetDomain != ctx.domain:
		// A closure handed to another domain's constructor or method
		// runs in THAT domain's context (this is how a stats callback
		// captured by a core is caught mutating machine state).
		litCtx = context{domain: ev.targetDomain, kind: "regular", fn: ctx.fn}
	}
	for i, arg := range call.Args {
		lit, isLit := ast.Unparen(arg).(*ast.FuncLit)
		if !isLit {
			continue
		}
		a.consumed[lit] = true
		c := litCtx
		if messageCall && i == len(call.Args)-1 {
			c = context{domain: ctx.domain, kind: "message", recvObj: ctx.recvObj, fn: ctx.fn}
		}
		a.walkBody(lit.Body, c, info)
	}

	if sanctioned {
		// A method value handed to the event API runs later in this same
		// context, exactly as if called here.
		for _, arg := range call.Args {
			fn, isSel := ast.Unparen(arg).(*ast.SelectorExpr)
			if !isSel {
				continue
			}
			if sel := info.Selections[fn]; sel != nil && sel.Kind() == types.MethodVal {
				mv := &callEvent{pos: fn.Pos(), ctx: ctx}
				a.resolveMethod(mv, fn, sel, ctx, info)
				if mv.key != "" {
					a.calls = append(a.calls, mv)
				}
			}
		}
		return
	}
	if ev.key == "" && !ev.funcField {
		return
	}
	if messageCall {
		a.crossing(call.Pos(), ctx.domain, ev.targetDomain, "message", ev.key)
		return
	}
	a.calls = append(a.calls, ev)
	// Same-receiver method calls feed the summary fixpoint. Only direct
	// calls on the receiver itself count — a call through a receiver FIELD
	// (m.rng.Fork()) mutates the field's owner, not the receiver.
	if ev.key != "" && ev.path != nil && ev.path.baseIsRecv && ev.path.nhops == 0 &&
		!ev.peerCall && !ev.path.viaPeer && ctx.kind != "message" {
		a.factsFor(ctx.fn).recvCalls = append(a.factsFor(ctx.fn).recvCalls, ev.key)
	}
}

// resolveMethod fills ev's callee key, target domain, receiver path and
// peer flag from the method selector fn.
func (a *analyzer) resolveMethod(ev *callEvent, fn *ast.SelectorExpr, sel *types.Selection, ctx context, info *types.Info) {
	name := fn.Sel.Name
	if iface, isIface := derefType(sel.Recv()).Underlying().(*types.Interface); isIface {
		ev.iface = a.implementors(iface, name)
	}
	n := namedOf(sel.Recv())
	if n == nil {
		return
	}
	ev.key = qnameOf(n) + "." + name
	ev.targetDomain = a.domainOf(n)
	hops, base, _ := a.resolveChain(fn.X, false, info)
	ev.path = a.makePath(hops, base, ctx, true)
	if a.isTileController(n) && !(ev.path.baseIsRecv && len(hops) == 0) {
		ev.peerCall = true
	}
}

// resultDomain resolves the domain a New* constructor wires up.
func (a *analyzer) resultDomain(f *types.Func) string {
	if !strings.HasPrefix(f.Name(), "New") {
		return ""
	}
	sig, isSig := f.Type().(*types.Signature)
	if !isSig || sig.Results().Len() == 0 {
		return ""
	}
	if n := namedOf(sig.Results().At(0).Type()); n != nil {
		return a.domainOf(n)
	}
	return ""
}

// implementors returns the summary keys of classified scope types whose
// pointer type implements iface and declares method name.
func (a *analyzer) implementors(iface *types.Interface, method string) []string {
	var keys []string
	for _, q := range a.sortedQNames() {
		ti := a.byQName[q]
		if ti.domain == "" {
			continue
		}
		if !types.Implements(types.NewPointer(ti.named), iface) {
			continue
		}
		keys = append(keys, q+"."+method)
	}
	return keys
}
