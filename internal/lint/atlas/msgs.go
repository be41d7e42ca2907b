package atlas

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// MsgKindType is the name of the message-kind type a protocol package
// declares. Its constants are the package's message kinds; a message is
// a value of a struct type whose kind field has this type.
const MsgKindType = "msgKind"

// ReceiveMethod is the name of each controller's receive function: the
// switch on a delivered message's kind that runs its handler. The switch
// is the controller's half of the protocol's message table.
const ReceiveMethod = "recv"

// Arm is one message kind's row of the message table: the case of the
// receive switch that handles it.
type Arm struct {
	// Recv is the type name of the controller whose receive function
	// handles the kind.
	Recv string
	// Methods names the controller methods the case calls, in order;
	// Calls holds those calls.
	Methods []string
	Calls   []*ast.CallExpr
	// Msg is the receive function's message variable: the case's calls
	// read the delivered message's fields through it.
	Msg types.Object
}

// SiteKind classifies a call that carries a message literal.
type SiteKind int

const (
	// NoSite: the call carries no message literal, or hands a message
	// value to a controller method or builtin (parking it, say).
	NoSite SiteKind = iota
	// SendSite: a network Send. The message is an edge to the handler
	// of its kind, at the destination controller.
	SendSite
	// ContSite: a message a controller posts to itself and hands to the
	// engine or the memory model (ScheduleCall, DRAM.Fetch). Its handler
	// runs later in the same controller: a same-context continuation.
	ContSite
)

// MsgTable is a protocol package's message table: for every message
// kind, the receive-switch arm that handles it. The extractors read a
// send as the constant kind of the message literal handed to Send and
// map it to its handler through this table.
type MsgTable struct {
	info     *types.Info
	kindType types.Type
	recvs    map[string]bool
	arms     map[string]*Arm
}

// NewMsgTable reads the message table of pkg: the receive functions of
// the controllers whose type names are recvs. A package that declares no
// message-kind type has an empty table.
func NewMsgTable(files []*ast.File, pkg *types.Package, info *types.Info, recvs []string) (*MsgTable, error) {
	t := &MsgTable{info: info, recvs: map[string]bool{}, arms: map[string]*Arm{}}
	for _, r := range recvs {
		t.recvs[r] = true
	}
	obj, ok := pkg.Scope().Lookup(MsgKindType).(*types.TypeName)
	if !ok {
		return t, nil
	}
	t.kindType = obj.Type()
	for _, r := range recvs {
		fn := findMethod(files, r, ReceiveMethod)
		if fn == nil || fn.Body == nil {
			continue
		}
		var sw *ast.SwitchStmt
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if s, ok := n.(*ast.SwitchStmt); ok && s.Tag != nil && sw == nil {
				if tv, ok := info.Types[s.Tag]; ok && types.Identical(tv.Type, t.kindType) {
					sw = s
				}
			}
			return sw == nil
		})
		if sw == nil {
			return nil, fmt.Errorf("atlas: %s.%s has no switch on a %s", r, ReceiveMethod, MsgKindType)
		}
		var msgVar types.Object
		if sel, ok := sw.Tag.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				msgVar = info.Uses[id]
			}
		}
		for _, cc := range sw.Body.List {
			clause := cc.(*ast.CaseClause)
			arm := &Arm{Recv: r, Msg: msgVar}
			for _, st := range clause.Body {
				ast.Inspect(st, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name := t.controllerMethod(call); name != "" {
						arm.Methods = append(arm.Methods, name)
						arm.Calls = append(arm.Calls, call)
					}
					return true
				})
			}
			for _, e := range clause.List {
				name := t.kindConst(e)
				if name == "" {
					return nil, fmt.Errorf("atlas: %s.%s case %s is not a %s constant", r, ReceiveMethod, types.ExprString(e), MsgKindType)
				}
				if _, dup := t.arms[name]; dup {
					return nil, fmt.Errorf("atlas: message kind %s handled twice", name)
				}
				t.arms[name] = arm
			}
		}
	}
	return t, nil
}

// controllerMethod returns the method name if call invokes a method of
// one of the table's controllers, else "".
func (t *MsgTable) controllerMethod(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, ok := t.info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return ""
	}
	tv, ok := t.info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	typ := tv.Type
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok && t.recvs[n.Obj().Name()] {
		return sel.Sel.Name
	}
	return ""
}

// kindConst resolves e to a message-kind constant name, or "".
func (t *MsgTable) kindConst(e ast.Expr) string {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	c, ok := t.info.Uses[id].(*types.Const)
	if !ok || !types.Identical(c.Type(), t.kindType) {
		return ""
	}
	return c.Name()
}

// Literal returns the message literal among call's arguments (at any
// depth outside function literals), or nil.
func (t *MsgTable) Literal(call *ast.CallExpr) *ast.CompositeLit {
	if t.kindType == nil {
		return nil
	}
	var lit *ast.CompositeLit
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CompositeLit:
				if lit == nil && t.isMsg(v) {
					lit = v
				}
			}
			return lit == nil
		})
	}
	return lit
}

// isMsg reports whether lit builds a message: a struct with a kind field
// of the message-kind type.
func (t *MsgTable) isMsg(lit *ast.CompositeLit) bool {
	tv, ok := t.info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == "kind" && types.Identical(f.Type(), t.kindType) {
			return true
		}
	}
	return false
}

// kindField returns the kind value of a message literal, or nil when the
// literal leaves it out.
func (t *MsgTable) kindField(lit *ast.CompositeLit) ast.Expr {
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "kind" {
				return kv.Value
			}
		}
	}
	return nil
}

// Site classifies call and returns the message literal it carries.
func (t *MsgTable) Site(call *ast.CallExpr) (SiteKind, *ast.CompositeLit) {
	lit := t.Literal(call)
	if lit == nil {
		return NoSite, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || t.controllerMethod(call) != "" {
		return NoSite, nil // a builtin (append), a function, or a controller method: a message value
	}
	if sel.Sel.Name == "Send" {
		return SendSite, lit
	}
	return ContSite, lit
}

// Arms resolves a message literal's kind — a constant, or a local
// variable assigned constants (defs maps locals to their assigned
// expressions, see LocalDefs) — and returns the arms of the kinds it can
// hold, in kind order. ok is false when the kind does not resolve.
func (t *MsgTable) Arms(lit *ast.CompositeLit, defs map[types.Object][]ast.Expr) (arms []*Arm, ok bool) {
	set := map[string]bool{}
	if !t.resolve(t.kindField(lit), defs, set, 0) {
		return nil, false
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		arm, found := t.arms[k]
		if !found {
			return nil, false
		}
		arms = append(arms, arm)
	}
	return arms, true
}

func (t *MsgTable) resolve(e ast.Expr, defs map[types.Object][]ast.Expr, out map[string]bool, depth int) bool {
	if e == nil || depth > 4 {
		return false
	}
	if n := t.kindConst(e); n != "" {
		out[n] = true
		return true
	}
	switch v := e.(type) {
	case *ast.ParenExpr:
		return t.resolve(v.X, defs, out, depth+1)
	case *ast.Ident:
		obj := t.info.Uses[v]
		if obj == nil || len(defs[obj]) == 0 {
			return false
		}
		for _, d := range defs[obj] {
			if !t.resolve(d, defs, out, depth+1) {
				return false
			}
		}
		return true
	}
	return false
}

// FieldsMentioning returns the names of lit's fields whose values
// satisfy mentions.
func FieldsMentioning(lit *ast.CompositeLit, mentions func(ast.Expr) bool) map[string]bool {
	out := map[string]bool{}
	for _, e := range lit.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && mentions(kv.Value) {
			out[id.Name] = true
		}
	}
	return out
}

// ReadsFields reports whether e reads one of fields of the arm's message
// variable (m.from, say).
func (a *Arm) ReadsFields(info *types.Info, e ast.Expr, fields map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if id, ok := sel.X.(*ast.Ident); ok && a.Msg != nil && info.Uses[id] == a.Msg && fields[sel.Sel.Name] {
			found = true
		}
		return !found
	})
	return found
}

// LocalDefs maps each local variable of fn to the expressions assigned
// to it (x := e, x = e), so that a constant carried through a local
// resolves.
func LocalDefs(info *types.Info, fn *ast.FuncDecl) map[types.Object][]ast.Expr {
	defs := map[types.Object][]ast.Expr{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				defs[obj] = append(defs[obj], as.Rhs[i])
			}
		}
		return true
	})
	return defs
}
