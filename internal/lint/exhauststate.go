package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"denovosync/internal/lint/analysis"
)

// ExhaustState checks that every switch over a protocol state type covers
// all declared constants of that type, or carries an explicit panicking
// default. State types are recognized by convention: a defined (named)
// type whose name ends in "State" (case-insensitive) — cache.LineState,
// cache.WordState, mesi's dirState, denovo's regOwnerState, the verify
// models' meCoreState/meDirState/dnWordState. The required constant set is the
// union of constants of that type declared in the type's defining package
// and in the analyzed package (protocol packages declare their own
// constants of cache-owned types, e.g. mesi's li/ls/le/lm).
//
// The same rule applies to map-keyed transition tables: a composite
// literal of type map[SomeState]V must list an entry for every declared
// constant of the state type. A handler refactored from a switch into a
// table lookup stays in scope, and a newly added state can no more be
// silently absent from the table than fall through a switch. Tables
// that deliberately cover a subset carry a per-site //simlint:allow
// with a reason (there is no map analog of a panicking default — a
// missing key is a silent zero value, the exact hazard).
var ExhaustState = &analysis.Analyzer{
	Name: "exhauststate",
	Doc: "switches over protocol state types must cover every declared " +
		"constant or panic in an explicit default, and map literals keyed " +
		"by a state type must list every constant, so a newly added state " +
		"can never silently fall through a transition",
	Run: runExhaustState,
}

func runExhaustState(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				checkStateMapLit(pass, lit)
				return true
			}
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.TypesInfo.TypeOf(sw.Tag)
			named := stateType(tagType)
			if named == nil {
				return true
			}
			required := stateConstants(named, pass.Pkg)
			if len(required) == 0 {
				return true
			}

			covered := map[string]bool{} // constant exact value -> seen
			hasDefault, defaultPanics := false, false
			for _, stmt := range sw.Body.List {
				cc := stmt.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
					defaultPanics = clausePanics(cc)
					continue
				}
				for _, e := range cc.List {
					if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
						covered[tv.Value.ExactString()] = true
					}
				}
			}
			if hasDefault && defaultPanics {
				return true
			}

			var missing []string
			for val, names := range required { //simlint:allow determinism: names are sorted before reporting
				if !covered[val] {
					missing = append(missing, strings.Join(names, "/"))
				}
			}
			if len(missing) == 0 {
				return true
			}
			sort.Strings(missing)
			what := "no default"
			if hasDefault {
				what = "a non-panicking default"
			}
			pass.Reportf(sw.Pos(),
				"switch over %s misses constants %s and has %s (cover them or panic in the default)",
				typeString(named, pass.Pkg), strings.Join(missing, ", "), what)
			return true
		})
	}
	return nil, nil
}

// checkStateMapLit applies the exhaustiveness rule to a composite
// literal whose type is a map keyed by a protocol state type.
func checkStateMapLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return
	}
	named := stateType(m.Key())
	if named == nil {
		return
	}
	required := stateConstants(named, pass.Pkg)
	if len(required) == 0 {
		return
	}
	covered := map[string]bool{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[kv.Key]; ok && tv.Value != nil {
			covered[tv.Value.ExactString()] = true
		}
	}
	var missing []string
	for val, names := range required { //simlint:allow determinism: names are sorted before reporting
		if !covered[val] {
			missing = append(missing, strings.Join(names, "/"))
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(lit.Pos(),
		"map literal keyed by %s misses constants %s (a missing key is a silent zero value — add the entries or suppress with a reason)",
		typeString(named, pass.Pkg), strings.Join(missing, ", "))
}

// stateType returns t as a defined type whose name marks it a protocol
// state type, or nil.
func stateType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if !strings.HasSuffix(strings.ToLower(named.Obj().Name()), "state") {
		return nil
	}
	return named
}

// stateConstants collects the declared constants of type named from the
// type's defining package and from pkg, keyed by exact constant value
// (several names may alias one value).
func stateConstants(named *types.Named, pkg *types.Package) map[string][]string {
	out := map[string][]string{}
	scopes := []*types.Scope{named.Obj().Pkg().Scope()}
	if pkg != nil && pkg != named.Obj().Pkg() {
		scopes = append(scopes, pkg.Scope())
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !types.Identical(c.Type(), named) {
				continue
			}
			key := c.Val().ExactString()
			out[key] = append(out[key], c.Name())
		}
	}
	return out
}

// clausePanics reports whether the clause body's control flow ends in a
// call to the panic builtin (directly, or inside a trailing block).
func clausePanics(cc *ast.CaseClause) bool {
	stmts := cc.Body
	for len(stmts) > 0 {
		last := stmts[len(stmts)-1]
		switch s := last.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "panic"
		case *ast.BlockStmt:
			stmts = s.List
		default:
			return false
		}
	}
	return false
}

func typeString(named *types.Named, pkg *types.Package) string {
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() == pkg {
		return obj.Name()
	}
	return fmt.Sprintf("%s.%s", obj.Pkg().Name(), obj.Name())
}
