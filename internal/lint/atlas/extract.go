package atlas

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// ControllerSpec tells the extractor how to read one controller: which
// receiver type's methods are protocol handlers and which named type is
// its stable-state enum.
type ControllerSpec struct {
	// Controller is the atlas tuple name ("mesi.L1", "denovo.Registry").
	Controller string
	// Recv is the receiver type name within the analyzed package.
	Recv string
	// StatePkg is the import path declaring the state type ("" = the
	// analyzed package itself).
	StatePkg string
	// StateType is the state type's name ("LineState", "dirState", ...).
	StateType string
	// Handlers are the method names whose bodies form the transition
	// nest.
	Handlers []string
}

// specs maps a protocol package path suffix to its controller specs.
const cachePkg = "denovosync/internal/cache"

var specs = map[string][]ControllerSpec{
	"mesi": {
		{
			Controller: "mesi.L1", Recv: "L1",
			StatePkg: cachePkg, StateType: "LineState",
			Handlers: []string{
				"access", "recvData", "recvInvAck", "maybeComplete",
				"evict", "recvInv", "recvFwdGetS", "recvFwdGetM",
			},
		},
		{
			Controller: "mesi.Directory", Recv: "Directory",
			StatePkg: "", StateType: "dirState",
			Handlers: []string{"serviceGetS", "serviceGetM", "complete", "recvPut"},
		},
	},
	"denovo": {
		{
			Controller: "denovo.L1", Recv: "L1",
			StatePkg: cachePkg, StateType: "WordState",
			Handlers: []string{
				"access", "evict", "recvWBAck", "recvDataFill",
				"recvFwdDataRead", "recvRegAck", "recvFwdReg", "serviceFwd",
			},
		},
		{
			Controller: "denovo.Registry", Recv: "Registry",
			StatePkg: "", StateType: "regOwnerState",
			Handlers: []string{"recvDataRead", "recvReg", "recvWB"},
		},
	},
}

// excludeActions are protocol-package/cache-package methods that are
// reads, naming helpers, or plumbing — not transition actions. The
// receive function is the message table itself; allocTxn/freeTxn
// recycle transaction records, findTxn/dropTxn and findWB/dropWB look up
// and remove entries of the L1s' outstanding-miss and writeback files,
// and forwarded reads MESI's store→load forwarding buffer.
var excludeActions = map[string]bool{
	"Lookup": true, "NodeFor": true, "Stats": true, "OwnerOf": true,
	"StateOf": true, "unitOf": true, "unitWords": true, "ackFlits": true,
	"backoffMask": true, "regionOf": true, "entry": true, "line": true,
	"ownerState": true, "wordState": true, "lineState": true,
	"regClass": true, "initialIncrement": true, "Epoch": true,
	ReceiveMethod: true, "allocTxn": true, "freeTxn": true,
	"findTxn": true, "dropTxn": true, "findWB": true, "dropWB": true,
	"forwarded": true,
}

// Specs returns the controller specs for one protocol package ("mesi",
// "denovo"), the authoritative handler registry the atlas and the
// liveness certifier both extract from.
func Specs(protocol string) []ControllerSpec {
	out := make([]ControllerSpec, len(specs[protocol]))
	copy(out, specs[protocol])
	return out
}

// ExcludedAction reports whether a method name is a pure read/naming
// helper rather than a transition action, so cross-analyzer call graphs
// stay in sync with the atlas.
func ExcludedAction(name string) bool { return excludeActions[name] }

// FindMethod locates the method declaration recv.name among files.
func FindMethod(files []*ast.File, recv, name string) *ast.FuncDecl {
	return findMethod(files, recv, name)
}

// Extract builds the transition atlas of one protocol package
// (internal/mesi or internal/denovo) from its parsed, type-checked form.
func Extract(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) (*Atlas, error) {
	protocol := path.Base(pkg.Path())
	cs, ok := specs[protocol]
	if !ok {
		return nil, fmt.Errorf("atlas: no controller specs for package %s", pkg.Path())
	}
	var recvs []string
	for _, spec := range cs {
		recvs = append(recvs, spec.Recv)
	}
	msgs, err := NewMsgTable(files, pkg, info, recvs)
	if err != nil {
		return nil, err
	}
	a := &Atlas{Protocol: protocol, States: map[string][]string{}}
	for _, spec := range cs {
		ex, err := newExtractor(fset, pkg, info, spec)
		if err != nil {
			return nil, err
		}
		ex.files, ex.msgs = files, msgs
		a.States[spec.Controller] = ex.stateNames
		for _, h := range spec.Handlers {
			fn := findMethod(files, spec.Recv, h)
			if fn == nil {
				return nil, fmt.Errorf("atlas: handler %s.%s not found in %s", spec.Recv, h, pkg.Path())
			}
			ex.extractHandler(h, fn)
		}
		if ex.err != nil {
			return nil, ex.err
		}
		a.Transitions = append(a.Transitions, ex.finalize()...)
	}
	if err := applyUnreachable(fset, files, a); err != nil {
		return nil, err
	}
	a.Sort()
	return a, nil
}

// findMethod locates the method decl recv.name among files.
func findMethod(files []*ast.File, recv, name string) *ast.FuncDecl {
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != name || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			t := fn.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == recv {
				return fn
			}
		}
	}
	return nil
}

// atoms is the content of a draft: possible next states, messages sent
// (remote handler names), and local helper actions.
type atoms struct {
	next, sends, actions map[string]bool
}

func newAtoms() atoms {
	return atoms{next: map[string]bool{}, sends: map[string]bool{}, actions: map[string]bool{}}
}

func (a atoms) clone() atoms {
	c := newAtoms()
	c.merge(a)
	return c
}

func (a atoms) merge(b atoms) {
	for k := range b.next {
		a.next[k] = true
	}
	for k := range b.sends {
		a.sends[k] = true
	}
	for k := range b.actions {
		a.actions[k] = true
	}
}

// draft is a proto-tuple: a guard context (state set × kind set) plus the
// atoms its region can perform. nil sets mean unconstrained; empty sets
// mean unreachable.
type draft struct {
	states map[string]bool // nil => "*"
	kinds  map[string]bool // nil => unqualified event
	pos    token.Pos
	at     atoms
	open   bool // still accumulates pass-through atoms of enclosing code
}

// extractor holds per-controller state for one Extract run.
type extractor struct {
	fset  *token.FileSet
	pkg   *types.Package
	info  *types.Info
	spec  ControllerSpec
	files []*ast.File
	msgs  *MsgTable

	// defs holds the locals of the function the walk is in (a handler,
	// or a continuation walked inline): message kinds resolve through
	// them.
	defs  map[types.Object][]ast.Expr
	depth int   // continuation nesting
	err   error // first unresolvable message kind

	stateType  types.Type
	stateNames []string          // declaration (value) order
	stateOf    map[string]string // constant ExactString -> name
	kindType   types.Type
	kindNames  []string

	event  string // current handler
	drafts map[string][]*draft
}

func newExtractor(fset *token.FileSet, pkg *types.Package, info *types.Info, spec ControllerSpec) (*extractor, error) {
	ex := &extractor{
		fset: fset, pkg: pkg, info: info, spec: spec,
		stateOf: map[string]string{}, drafts: map[string][]*draft{},
	}
	st, err := lookupType(pkg, spec.StatePkg, spec.StateType)
	if err != nil {
		return nil, err
	}
	ex.stateType = st
	ex.stateNames = constNames(pkg, st, ex.stateOf)
	if len(ex.stateNames) == 0 {
		return nil, fmt.Errorf("atlas: no %s constants declared for %s", spec.StateType, spec.Controller)
	}
	kt, err := lookupType(pkg, "denovosync/internal/proto", "AccessKind")
	if err != nil {
		return nil, err
	}
	ex.kindType = kt
	ex.kindNames = constNames(pkg, kt, map[string]string{})
	return ex, nil
}

// lookupType resolves a named type from the analyzed package ("") or one
// of its imports.
func lookupType(pkg *types.Package, pkgPath, name string) (types.Type, error) {
	scope := pkg.Scope()
	if pkgPath != "" {
		scope = nil
		for _, imp := range pkg.Imports() {
			if imp.Path() == pkgPath {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return nil, fmt.Errorf("atlas: package %s does not import %s", pkg.Path(), pkgPath)
		}
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("atlas: type %s not found in %s", name, pkgPath)
	}
	return obj.Type(), nil
}

// constNames collects the constants of type t visible from pkg (its own
// scope plus t's defining package), in value order, filling byVal with
// value->name.
func constNames(pkg *types.Package, t types.Type, byVal map[string]string) []string {
	type sc struct {
		name string
		val  string
	}
	var cs []sc
	seen := map[string]bool{}
	scopes := []*types.Scope{pkg.Scope()}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg() != pkg {
		scopes = append(scopes, n.Obj().Pkg().Scope())
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !types.Identical(c.Type(), t) || seen[name] {
				continue
			}
			seen[name] = true
			cs = append(cs, sc{name, c.Val().ExactString()})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i].val) != len(cs[j].val) {
			return len(cs[i].val) < len(cs[j].val)
		}
		return cs[i].val < cs[j].val
	})
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.name
		byVal[c.val] = c.name
	}
	return names
}

// constName resolves an expression to a state/kind constant name of the
// given type, or "".
func (ex *extractor) constName(e ast.Expr, t types.Type) string {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return ""
	}
	c, ok := ex.info.Uses[id].(*types.Const)
	if !ok && ex.info.Defs[id] != nil {
		c, ok = ex.info.Defs[id].(*types.Const)
	}
	if !ok || c == nil || !types.Identical(c.Type(), t) {
		return ""
	}
	return c.Name()
}

// universe returns the full constant-name set for sort ("state"/"kind").
func (ex *extractor) universe(names []string) map[string]bool {
	u := map[string]bool{}
	for _, n := range names {
		u[n] = true
	}
	return u
}

func (ex *extractor) posString(p token.Pos) string {
	pos := ex.fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// extractHandler walks one handler body and accumulates drafts.
func (ex *extractor) extractHandler(event string, fn *ast.FuncDecl) {
	ex.event = event
	ex.defs = LocalDefs(ex.info, fn)
	res := ex.walkStmts(fn.Body.List, nil, nil, newAtoms())
	ds := res.drafts
	// The fall-through path of the handler is itself a tuple context,
	// unless it is unreachable (terminated, or its guard sets emptied).
	if !res.terminated && !emptySet(res.states) && !emptySet(res.kinds) {
		ds = append(ds, &draft{states: res.states, kinds: res.kinds, pos: fn.Pos(), at: res.pass})
	}
	ex.drafts[event] = append(ex.drafts[event], ds...)
}

// emptySet reports a non-nil empty guard set (= no values reach here).
func emptySet(s map[string]bool) bool { return s != nil && len(s) == 0 }

var unreachableRE = regexp.MustCompile(`^//atlas:unreachable\s+(\S+)\s+(\S+)\s+(\S+):\s*(\S.*)$`)

// applyUnreachable transfers //atlas:unreachable annotations onto tuples.
func applyUnreachable(fset *token.FileSet, files []*ast.File, a *Atlas) error {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := unreachableRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				t := a.Lookup(m[1], m[2], m[3])
				if t == nil {
					pos := fset.Position(c.Pos())
					return fmt.Errorf("%s:%d: //atlas:unreachable names unknown tuple (%s %s %s)",
						filepath.Base(pos.Filename), pos.Line, m[1], m[2], m[3])
				}
				t.Unreachable = strings.TrimSpace(m[4])
			}
		}
	}
	return nil
}
