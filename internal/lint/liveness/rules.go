package liveness

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// certify assembles the waits-for graph of the extracted packages and
// runs the six liveness rules, producing the full certificate.
func certify(models []*pkgModel) *Graph {
	g := &Graph{Schema: Schema}
	for _, p := range models {
		g.Packages = append(g.Packages, p.pkgPath)
		inc := include(p)
		emitNodes(g, p, inc)
		emitEdges(g, p, inc)
		emitChains(g, p, inc)
		emitResources(g, p)
		ruleUnguardedPark(g, p, inc)
		ruleMutualPark(g, p, inc)
		ruleUnansweredRequest(g, p, inc)
		ruleClassCycle(g, p, inc)
		ruleBackoffClamped(g, p, inc)
		ruleStaleRetire(g, p, inc)
		g.Assumes = append(g.Assumes, p.assumes...)
	}
	g.Sort()
	return g
}

// inclusion is the set of methods that form the graph, with their node
// kinds resolved.
type inclusion struct {
	methods map[string]*method // "Recv.name"
	kinds   map[string]string  // "Recv.name" -> message|entry|helper
}

func (in *inclusion) has(recv, name string) bool {
	_, ok := in.methods[recv+"."+name]
	return ok
}

// include computes the reachable method set: roots are the declared
// handlers plus exported (externally driven) methods; the closure
// follows local call edges and send targets.
func include(p *pkgModel) *inclusion {
	in := &inclusion{methods: map[string]*method{}, kinds: map[string]string{}}
	isHandler := map[string]bool{}
	var queue []*method
	push := func(m *method, kind string) {
		key := m.recvName + "." + m.name
		if prev, ok := in.kinds[key]; ok {
			// message outranks entry outranks helper.
			if rank(kind) > rank(prev) {
				in.kinds[key] = kind
			}
			return
		}
		in.methods[key] = m
		in.kinds[key] = kind
		queue = append(queue, m)
	}
	for _, c := range p.controllers {
		for _, h := range c.Handlers {
			isHandler[c.Recv+"."+h] = true
			if m := p.methodByRecv(c.Recv, h); m != nil {
				push(m, "message")
			}
		}
	}
	for key, m := range p.methods {
		if ast.IsExported(m.name) && interestingCallee(m.name) && !isHandler[key] {
			push(m, "entry")
		}
	}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		for _, c := range m.calls {
			if callee := p.methodByRecv(m.recvName, c.callee); callee != nil {
				push(callee, "helper")
			}
		}
		for _, s := range m.sends {
			for _, t := range s.targets {
				if tm := p.methodByRecv(t.typeName, t.method); tm != nil {
					push(tm, "message")
				}
			}
		}
	}
	// Drop isolated fact-free non-message nodes (pure entry stubs).
	incident := map[string]bool{}
	for _, m := range in.methods {
		for _, c := range m.calls {
			if in.has(m.recvName, c.callee) {
				incident[m.recvName+"."+c.callee] = true
				incident[m.recvName+"."+m.name] = true
			}
		}
		for _, s := range m.sends {
			for _, t := range s.targets {
				if in.has(t.typeName, t.method) {
					incident[t.typeName+"."+t.method] = true
					incident[m.recvName+"."+m.name] = true
				}
			}
		}
	}
	for key, m := range in.methods {
		facts := len(m.sends) + len(m.calls) + len(m.parks) + len(m.discharges) + len(m.growths)
		if facts == 0 && !incident[key] && in.kinds[key] != "message" {
			delete(in.methods, key)
			delete(in.kinds, key)
		}
	}
	for key, m := range in.methods {
		m.kind = in.kinds[key]
	}
	return in
}

func rank(kind string) int {
	switch kind {
	case "message":
		return 2
	case "entry":
		return 1
	}
	return 0
}

func emitNodes(g *Graph, p *pkgModel, in *inclusion) {
	for _, m := range in.methods {
		g.Nodes = append(g.Nodes, Node{
			ID:         m.id(),
			Controller: m.controller,
			Handler:    m.name,
			Kind:       m.kind,
			Pos:        p.posString(m.decl.Pos()),
		})
	}
}

// graphEdge is the internal (pre-dedup) edge form shared by emitEdges
// and the cycle rule.
type graphEdge struct {
	from, to     string
	class        string // "" for call edges
	kind         string
	viaDischarge bool
	pos          string
}

func modelEdges(p *pkgModel, in *inclusion) []graphEdge {
	var out []graphEdge
	for _, m := range in.methods {
		via := len(m.discharges) > 0
		for _, c := range m.calls {
			if !in.has(m.recvName, c.callee) {
				continue
			}
			out = append(out, graphEdge{
				from: m.id(), to: m.controller + "." + c.callee,
				kind: "call", viaDischarge: via, pos: p.posString(c.pos),
			})
		}
		for _, s := range m.sends {
			for _, t := range s.targets {
				if !in.has(t.typeName, t.method) {
					continue
				}
				to := p.controllers[t.typeName].Name + "." + t.method
				for _, cls := range s.classes {
					out = append(out, graphEdge{
						from: m.id(), to: to, class: cls,
						kind: "message", viaDischarge: via, pos: p.posString(s.pos),
					})
				}
			}
		}
	}
	return out
}

func emitEdges(g *Graph, p *pkgModel, in *inclusion) {
	best := map[string]graphEdge{}
	for _, e := range modelEdges(p, in) {
		key := e.from + "\x00" + e.to + "\x00" + e.kind + "\x00" + e.class
		if prev, ok := best[key]; !ok || e.pos < prev.pos {
			best[key] = e
		}
	}
	for _, e := range best {
		g.Edges = append(g.Edges, Edge{
			From: e.from, To: e.to, Class: e.class, Kind: e.kind,
			ViaDischarge: e.viaDischarge, Pos: e.pos,
		})
	}
}

func emitChains(g *Graph, p *pkgModel, in *inclusion) {
	for _, c := range p.chains {
		ch := Chain{ID: c.id, Elem: c.elem}
		for _, m := range in.methods {
			for _, pk := range m.parks {
				if pk.chain == c {
					ch.Parks = append(ch.Parks, m.id()+"@"+p.posString(pk.pos))
				}
			}
			for _, d := range m.discharges {
				if d.chain == c {
					ch.Discharges = append(ch.Discharges, m.id()+"@"+p.posString(d.pos))
				}
			}
		}
		g.Chains = append(g.Chains, ch)
	}
}

func emitResources(g *Graph, p *pkgModel) {
	for _, r := range p.resources {
		kind := "persistent"
		if len(r.frees) > 0 {
			kind = "transaction"
		}
		res := Resource{ID: r.id, Kind: kind}
		for _, a := range r.allocs {
			res.Allocs = append(res.Allocs, p.posString(a))
		}
		for _, f := range r.frees {
			res.Frees = append(res.Frees, p.posString(f))
		}
		g.Resources = append(g.Resources, res)
	}
}

// ruleUnguardedPark: every chain with park sites has a statically
// reachable discharge arm.
func ruleUnguardedPark(g *Graph, p *pkgModel, in *inclusion) {
	type sites struct {
		parks      []*parkSite
		parkOwners []*method
		discharges []string
	}
	byChain := map[*chainInfo]*sites{}
	for _, m := range in.methods {
		for _, pk := range m.parks {
			s := byChain[pk.chain]
			if s == nil {
				s = &sites{}
				byChain[pk.chain] = s
			}
			s.parks = append(s.parks, pk)
			s.parkOwners = append(s.parkOwners, m)
		}
		for _, d := range m.discharges {
			s := byChain[d.chain]
			if s == nil {
				s = &sites{}
				byChain[d.chain] = s
			}
			s.discharges = append(s.discharges, m.id())
		}
	}
	for c, s := range byChain {
		if len(s.parks) == 0 {
			continue
		}
		// Parks blessed by //protolive:assume are out of scope.
		var live []*parkSite
		var reasons []string
		for _, pk := range s.parks {
			if r, ok := p.assumeFor(pk.pos); ok {
				reasons = append(reasons, r)
			} else {
				live = append(live, pk)
			}
		}
		first := s.parks[0].pos
		for _, pk := range s.parks[1:] {
			if pk.pos < first {
				first = pk.pos
			}
		}
		ob := Obligation{Rule: "unguarded-park", Subject: c.id, Pos: p.posString(first)}
		switch {
		case len(live) == 0:
			ob.Status = "discharged"
			ob.By = "assumed: " + strings.Join(reasons, "; ")
		case len(s.discharges) > 0:
			ob.Status = "discharged"
			ds := append([]string(nil), s.discharges...)
			sort.Strings(ds)
			ob.By = "drained in " + strings.Join(dedupStrings(ds), ", ")
		default:
			ob.Status = "violated"
			for _, pk := range live {
				g.Findings = append(g.Findings, Finding{
					Rule:    "unguarded-park",
					Pos:     p.posString(pk.pos),
					Message: fmt.Sprintf("park on %s has no reachable discharge arm: requests queued here are never woken", c.id),
				})
			}
		}
		g.Obligations = append(g.Obligations, ob)
	}
}

// ruleMutualPark: a handler that parks requests while its own send path
// answers peer parks of the same chain must carry a serialization-order
// guard (the registration-forward deadlock shape).
func ruleMutualPark(g *Graph, p *pkgModel, in *inclusion) {
	// Direct dischargers per chain, per receiver type.
	dischargers := map[*chainInfo]map[string]map[string]bool{} // chain -> recv -> method
	for _, m := range in.methods {
		for _, d := range m.discharges {
			if dischargers[d.chain] == nil {
				dischargers[d.chain] = map[string]map[string]bool{}
			}
			if dischargers[d.chain][m.recvName] == nil {
				dischargers[d.chain][m.recvName] = map[string]bool{}
			}
			dischargers[d.chain][m.recvName][m.name] = true
		}
	}
	for _, m := range sortedMethods(in) {
		for _, pk := range m.parks {
			peers := dischargers[pk.chain][m.recvName]
			if len(peers) == 0 {
				continue
			}
			hazard := ""
			for _, rm := range localReach(p, in, m) {
				for _, s := range rm.sends {
					for _, t := range s.targets {
						if t.typeName == m.recvName && peers[t.method] {
							hazard = rm.id() + " sends " + t.typeName + "." + t.method
						}
					}
				}
			}
			if hazard == "" {
				continue
			}
			ob := Obligation{
				Rule:    "mutual-park",
				Subject: m.id() + " parks " + pk.chain.id,
				Pos:     p.posString(pk.pos),
			}
			if reason, ok := p.assumeFor(pk.pos); ok {
				ob.Status = "discharged"
				ob.By = "assumed: " + reason
			} else if guard, ok := orderingGuard(p, m, pk); ok {
				ob.Status = "discharged"
				ob.By = "serialization-order guard: " + guard
			} else {
				ob.Status = "violated"
				g.Findings = append(g.Findings, Finding{
					Rule:    "mutual-park",
					Pos:     p.posString(pk.pos),
					Message: fmt.Sprintf("%s parks on %s while its send path (%s) answers peer parks: mutual park can deadlock without a serialization-order guard", m.id(), pk.chain.id, hazard),
				})
			}
			g.Obligations = append(g.Obligations, ob)
		}
	}
}

// localReach is the same-controller call closure from m.
func localReach(p *pkgModel, in *inclusion, m *method) []*method {
	seen := map[string]*method{m.id(): m}
	queue := []*method{m}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range cur.calls {
			callee := p.methodByRecv(cur.recvName, c.callee)
			if callee == nil || !in.has(cur.recvName, c.callee) {
				continue
			}
			if _, ok := seen[callee.id()]; !ok {
				seen[callee.id()] = callee
				queue = append(queue, callee)
			}
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*method, 0, len(ids))
	for _, id := range ids {
		out = append(out, seen[id])
	}
	return out
}

// orderingGuard reports whether a park site is dominated by an
// ordering comparison (<, <=, >, >=) — directly in an enclosing
// condition, or one local-alias hop away (stale := serial < bound).
func orderingGuard(p *pkgModel, m *method, pk *parkSite) (string, bool) {
	defs := p.localDefsCache(m)
	for _, cond := range pk.conds {
		if e, ok := findOrdering(cond); ok {
			return renderExpr(p, e), true
		}
		found := ""
		ast.Inspect(cond, func(n ast.Node) bool {
			if found != "" {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.info.Uses[id]
			if obj == nil {
				return true
			}
			for _, def := range defs[obj] {
				if e, ok := findOrdering(def); ok {
					found = id.Name + " = " + renderExpr(p, e)
					return false
				}
			}
			return true
		})
		if found != "" {
			return found, true
		}
	}
	return "", false
}

func findOrdering(e ast.Expr) (*ast.BinaryExpr, bool) {
	var out *ast.BinaryExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			out = b
			return false
		}
		return true
	})
	return out, out != nil
}

// renderExpr prints a guard expression compactly for the ledger.
func renderExpr(p *pkgModel, e ast.Expr) string {
	start := p.fset.Position(e.Pos())
	end := p.fset.Position(e.End())
	_ = end
	return fmt.Sprintf("ordering comparison at %s:%d", start.Filename[strings.LastIndex(start.Filename, "/")+1:], start.Line)
}

// ruleBackoffClamped: counters in masked-update functions only grow
// toward their clamp.
func ruleBackoffClamped(g *Graph, p *pkgModel, in *inclusion) {
	for _, m := range sortedMethods(in) {
		for _, gr := range m.growths {
			ob := Obligation{
				Rule:    "backoff-clamped",
				Subject: m.id() + "." + gr.field.Name(),
				Pos:     p.posString(gr.pos),
			}
			if reason, ok := p.assumeFor(gr.pos); ok {
				ob.Status = "discharged"
				ob.By = "assumed: " + reason
			} else if gr.masked {
				ob.Status = "discharged"
				ob.By = "mask-bounded or compare-clamped in the same arm"
			} else {
				ob.Status = "violated"
				g.Findings = append(g.Findings, Finding{
					Rule:    "backoff-clamped",
					Pos:     p.posString(gr.pos),
					Message: fmt.Sprintf("backoff counter %s grows without a mask or clamp: unbounded growth defeats the bounded-backoff guarantee", gr.field.Name()),
				})
			}
			g.Obligations = append(g.Obligations, ob)
		}
	}
}

// ruleClassCycle: per network class, the message dependency graph must
// be acyclic unless a finite-queue discharge bounds the cycle.
func ruleClassCycle(g *Graph, p *pkgModel, in *inclusion) {
	edges := modelEdges(p, in)
	classes := map[string]bool{}
	for _, e := range edges {
		if e.kind == "message" && e.class != "?" && e.class != "" {
			classes[e.class] = true
		}
	}
	if len(classes) == 0 {
		for _, e := range edges {
			if e.kind == "message" {
				classes["?"] = true
				break
			}
		}
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, cls := range names {
		sub := make([]graphEdge, 0, len(edges))
		firstMsgPos := ""
		for _, e := range edges {
			if e.kind == "call" || e.class == cls || e.class == "?" || cls == "?" {
				sub = append(sub, e)
				if e.kind == "message" && (firstMsgPos == "" || e.pos < firstMsgPos) {
					firstMsgPos = e.pos
				}
			}
		}
		ob := Obligation{Rule: "class-cycle", Subject: p.pkgName + " class " + cls, Pos: firstMsgPos}
		cycles := sccCycles(sub)
		violated := false
		var brokenBy []string
		for _, scc := range cycles {
			hasMsg, hasDischarge := false, false
			var dischargeFroms []string
			for _, e := range scc.edges {
				if e.kind == "message" {
					hasMsg = true
				}
				if e.viaDischarge {
					hasDischarge = true
					dischargeFroms = append(dischargeFroms, e.from)
				}
			}
			if !hasMsg {
				continue
			}
			if hasDischarge {
				brokenBy = append(brokenBy, dischargeFroms...)
				continue
			}
			violated = true
			pos := scc.edges[0].pos
			for _, e := range scc.edges {
				if e.kind == "message" && e.pos < pos {
					pos = e.pos
				}
			}
			g.Findings = append(g.Findings, Finding{
				Rule:    "class-cycle",
				Pos:     pos,
				Message: fmt.Sprintf("class %s dependency cycle through %s: no finite-queue discharge bounds it", cls, strings.Join(scc.nodes, " -> ")),
			})
		}
		if violated {
			ob.Status = "violated"
		} else if len(brokenBy) > 0 {
			sort.Strings(brokenBy)
			ob.Status = "discharged"
			ob.By = "cycle bounded by discharge in " + strings.Join(dedupStrings(brokenBy), ", ")
		} else {
			ob.Status = "discharged"
			ob.By = "acyclic"
		}
		g.Obligations = append(g.Obligations, ob)
	}
}

// scc holds one non-trivial strongly connected component and its
// internal edges.
type scc struct {
	nodes []string
	edges []graphEdge
}

// sccCycles runs Tarjan's algorithm and returns the components that can
// sustain a cycle (size > 1, or a self-loop).
func sccCycles(edges []graphEdge) []scc {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from] = true
		nodes[e.to] = true
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, vs := range adj {
		sort.Strings(vs)
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range names {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	var out []scc
	for _, comp := range comps {
		in := map[string]bool{}
		for _, n := range comp {
			in[n] = true
		}
		var internal []graphEdge
		selfLoop := false
		for _, e := range edges {
			if in[e.from] && in[e.to] {
				internal = append(internal, e)
				if e.from == e.to {
					selfLoop = true
				}
			}
		}
		if len(comp) > 1 || selfLoop {
			sort.Strings(comp)
			out = append(out, scc{nodes: comp, edges: internal})
		}
	}
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i].nodes, ",") < strings.Join(out[j].nodes, ",") })
	return out
}

// ruleStaleRetire: an arm that retires ownership on sender identity must
// also check a grant serial (the stale-Put shape).
func ruleStaleRetire(g *Graph, p *pkgModel, in *inclusion) {
	for _, m := range sortedMethods(in) {
		if m.kind != "message" {
			continue
		}
		reqs := requesterParams(p, m)
		if len(reqs.ptrObjs) == 0 {
			continue
		}
		ints := integerParams(p, m)
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			if !condComparesIdentity(p, ifs.Cond, reqs.ptrObjs) || !bodyAssignsField(p, ifs.Body) {
				return true
			}
			ob := Obligation{
				Rule:    "stale-retire",
				Subject: m.id(),
				Pos:     p.posString(ifs.Pos()),
			}
			if reason, okA := p.assumeFor(ifs.Pos()); okA {
				ob.Status = "discharged"
				ob.By = "assumed: " + reason
			} else if condComparesSerial(p, ifs.Cond, ints) {
				ob.Status = "discharged"
				ob.By = "grant-serial equality in the same guard"
			} else {
				ob.Status = "violated"
				g.Findings = append(g.Findings, Finding{
					Rule:    "stale-retire",
					Pos:     p.posString(ifs.Pos()),
					Message: fmt.Sprintf("%s retires ownership on sender identity without a grant-serial check: a stale message can revoke a newer grant", m.id()),
				})
			}
			g.Obligations = append(g.Obligations, ob)
			return true
		})
	}
}

type reqParams struct {
	ptrObjs  map[types.Object]bool // pointer-to-controller params
	elemObjs map[types.Object]bool // chain-element struct params
}

func (r reqParams) all() map[types.Object]bool {
	out := map[types.Object]bool{}
	for o := range r.ptrObjs {
		out[o] = true
	}
	for o := range r.elemObjs {
		out[o] = true
	}
	return out
}

// requesterParams finds a method's request-carrying parameters: pointers
// to controllers, and package chain-element structs (queued requests).
func requesterParams(p *pkgModel, m *method) reqParams {
	out := reqParams{ptrObjs: map[types.Object]bool{}, elemObjs: map[types.Object]bool{}}
	elemNames := map[string]bool{}
	for _, c := range p.chains {
		if c.elem != "func" {
			elemNames[c.elem] = true
		}
	}
	if m.decl.Type.Params == nil {
		return out
	}
	for _, f := range m.decl.Type.Params.List {
		for _, name := range f.Names {
			obj := p.info.Defs[name]
			if obj == nil {
				continue
			}
			t := obj.Type()
			if p.controllerPtr(t) != "" {
				out.ptrObjs[obj] = true
				continue
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() == p.tpkg && elemNames[n.Obj().Name()] {
				out.elemObjs[obj] = true
			}
		}
	}
	return out
}

func integerParams(p *pkgModel, m *method) map[types.Object]bool {
	out := map[types.Object]bool{}
	if m.decl.Type.Params == nil {
		return out
	}
	for _, f := range m.decl.Type.Params.List {
		for _, name := range f.Names {
			obj := p.info.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				out[obj] = true
			}
		}
	}
	return out
}

// condComparesIdentity: cond contains `x == param` for a requester
// pointer param.
func condComparesIdentity(p *pkgModel, cond ast.Expr, reqs map[types.Object]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL {
			return true
		}
		for _, side := range []ast.Expr{b.X, b.Y} {
			if id, ok := side.(*ast.Ident); ok {
				if obj := p.info.Uses[id]; obj != nil && reqs[obj] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// condComparesSerial: cond contains `field == intParam` (a grant-serial
// freshness check).
func condComparesSerial(p *pkgModel, cond ast.Expr, ints map[types.Object]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.EQL {
			return true
		}
		var paramSide, otherSide ast.Expr
		if id, ok := b.X.(*ast.Ident); ok && p.info.Uses[id] != nil && ints[p.info.Uses[id]] {
			paramSide, otherSide = b.X, b.Y
		} else if id, ok := b.Y.(*ast.Ident); ok && p.info.Uses[id] != nil && ints[p.info.Uses[id]] {
			paramSide, otherSide = b.Y, b.X
		}
		if paramSide == nil {
			return true
		}
		if p.fieldOf(otherSide) != nil {
			found = true
			return false
		}
		return true
	})
	return found
}

func bodyAssignsField(p *pkgModel, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if p.fieldOf(lhs) != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func sortedMethods(in *inclusion) []*method {
	keys := make([]string, 0, len(in.methods))
	for k := range in.methods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*method, 0, len(keys))
	for _, k := range keys {
		out = append(out, in.methods[k])
	}
	return out
}

func dedupStrings(sorted []string) []string {
	var out []string
	for _, s := range sorted {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}
