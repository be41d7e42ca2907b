package liveness_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovosync/internal/lint/atlas"
	"denovosync/internal/lint/liveness"
)

// fixtureGraph certifies one livefix package (testdata/livefix is its
// own module so the planted bugs never enter the real build).
func fixtureGraph(t *testing.T, pkg string, controllers []liveness.Controller) *liveness.Graph {
	t.Helper()
	g, err := liveness.ExtractDir(filepath.Join("testdata", "livefix"), liveness.Spec{
		{Path: "livefix/" + pkg, Controllers: controllers},
	})
	if err != nil {
		t.Fatalf("ExtractDir(livefix/%s): %v", pkg, err)
	}
	return g
}

// wantFinding asserts exactly one finding of the rule, anchored to the
// fixture file with its message naming the defect.
func wantFinding(t *testing.T, g *liveness.Graph, rule, filePrefix, substr string) liveness.Finding {
	t.Helper()
	var hits []liveness.Finding
	for _, f := range g.Findings {
		if f.Rule == rule {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d %s findings, want exactly 1", len(hits), rule)
	}
	f := hits[0]
	if !strings.HasPrefix(f.Pos, filePrefix) {
		t.Errorf("%s finding at %s, want an arm-level position in %s", rule, f.Pos, filePrefix)
	}
	if !strings.Contains(f.Message, substr) {
		t.Errorf("%s message %q does not mention %q", rule, f.Message, substr)
	}
	return f
}

// TestPlantedRegistrationForwardDeadlock replays the PR 5 bug shape:
// recvFwdReg parking forwarded registrations with no
// serialization-order guard, while its own send path answers peer
// parks. Reverting the fix (dropping the `stale` ordering comparison)
// reintroduces exactly this shape in the real tree.
func TestPlantedRegistrationForwardDeadlock(t *testing.T) {
	g := fixtureGraph(t, "dn", []liveness.Controller{
		{Name: "dn.L1", Recv: "L1", Handlers: []string{"recvFwdReg", "serviceFwd", "recvRegAck"}},
	})
	if len(g.Findings) != 1 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want exactly the planted deadlock", len(g.Findings))
	}
	wantFinding(t, g, "mutual-park", "dn.go:", "serialization-order guard")
	// The mutual-park obligation must name both sides of the deadlock:
	// the parked chain and the send path that answers peer parks.
	found := false
	for _, o := range g.Obligations {
		if o.Rule == "mutual-park" && o.Status == "violated" &&
			strings.Contains(o.Subject, "dn.L1.recvFwdReg") && strings.Contains(o.Subject, "dn.txn.parked") {
			found = true
		}
	}
	if !found {
		t.Errorf("no violated mutual-park obligation for dn.L1.recvFwdReg parks dn.txn.parked: %+v", g.Obligations)
	}
}

// TestPlantedStaleRetireAndDroppedRequest replays the PR 6 stale-Put
// shape (ownership retired on sender identity with no epoch check) plus
// a silently dropped request.
func TestPlantedStaleRetireAndDroppedRequest(t *testing.T) {
	g := fixtureGraph(t, "md", []liveness.Controller{
		{Name: "md.Dir", Recv: "Dir", Handlers: []string{"recvPut", "recvDrop"}},
		{Name: "md.L1", Recv: "L1"},
	})
	if len(g.Findings) != 2 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want the planted stale-retire and dropped request", len(g.Findings))
	}
	wantFinding(t, g, "stale-retire", "md.go:", "grant-serial")
	f := wantFinding(t, g, "unanswered-request", "md.go:", "dropped on this path")
	if !strings.Contains(f.Message, "md.Dir.recvDrop") {
		t.Errorf("unanswered-request finding %q does not name the dropping arm", f.Message)
	}
}

// TestPlantedUnguardedPark pins both halves of the rule: a park chain
// with no discharge arm is flagged, and the same shape under
// //protolive:assume(reason) is an audited escape recorded in the
// certificate instead.
func TestPlantedUnguardedPark(t *testing.T) {
	g := fixtureGraph(t, "park", []liveness.Controller{
		{Name: "park.Ctl", Recv: "Ctl", Handlers: []string{"recvMiss", "recvStall"}},
	})
	if len(g.Findings) != 1 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want only the unassumed park", len(g.Findings))
	}
	f := wantFinding(t, g, "unguarded-park", "park.go:", "never woken")
	if !strings.Contains(f.Message, "park.line.waiters") {
		t.Errorf("finding %q does not name the undischarged chain", f.Message)
	}
	if len(g.Assumes) != 1 || g.Assumes[0].Reason != "drained by the host runtime between epochs" {
		t.Fatalf("assumes = %+v, want the one audited escape with its reason", g.Assumes)
	}
	// The assumed chain's obligation is discharged, not silently skipped.
	ok := false
	for _, o := range g.Obligations {
		if o.Rule == "unguarded-park" && o.Subject == "park.line.stalls" &&
			o.Status == "discharged" && strings.Contains(o.By, "assumed:") {
			ok = true
		}
	}
	if !ok {
		t.Errorf("no discharged-by-assume obligation for park.line.stalls: %+v", g.Obligations)
	}
}

// TestPlantedUnclampedBackoff: growth without mask or clamp inside a
// masked-update arm is flagged.
func TestPlantedUnclampedBackoff(t *testing.T) {
	g := fixtureGraph(t, "boff", []liveness.Controller{
		{Name: "boff.Ctl", Recv: "Ctl", Handlers: []string{"noteRemote"}},
	})
	if len(g.Findings) != 1 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want the unclamped counter", len(g.Findings))
	}
	wantFinding(t, g, "backoff-clamped", "boff.go:", "without a mask or clamp")
}

// TestPlantedClassCycle: two arms answering each other on one network
// class with no finite-queue discharge form a flagged cycle.
func TestPlantedClassCycle(t *testing.T) {
	g := fixtureGraph(t, "ping", []liveness.Controller{
		{Name: "ping.Node", Recv: "Node", Handlers: []string{"recvPing", "recvPong"}},
	})
	if len(g.Findings) != 1 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want the ping-pong cycle", len(g.Findings))
	}
	f := wantFinding(t, g, "class-cycle", "ping.go:", "ClassSynch")
	if !strings.Contains(f.Message, "recvPing") || !strings.Contains(f.Message, "recvPong") {
		t.Errorf("cycle finding %q does not name both arms", f.Message)
	}
}

// TestBoundContinuationDischargesPark: a park whose only wakeup runs
// through a continuation field bound once in the constructor — handed to
// the event queue, never called directly — certifies clean, with the
// resolved call edge in the graph.
func TestBoundContinuationDischargesPark(t *testing.T) {
	g := fixtureGraph(t, "bound", []liveness.Controller{{Name: "bound.Ctl", Recv: "Ctl"}})
	for _, f := range g.Findings {
		t.Errorf("finding: %s", f)
	}
	edge := false
	for _, e := range g.Edges {
		if e.From == "bound.Ctl.Access" && e.To == "bound.Ctl.retire" && e.Kind == "call" {
			edge = true
		}
	}
	if !edge {
		t.Errorf("no call edge bound.Ctl.Access -> bound.Ctl.retire through doneFn: %+v", g.Edges)
	}
	ok := false
	for _, o := range g.Obligations {
		if o.Rule == "unguarded-park" && o.Subject == "bound.Ctl.waiters" &&
			o.Status == "discharged" && strings.Contains(o.By, "bound.Ctl.retire") {
			ok = true
		}
	}
	if !ok {
		t.Errorf("park on bound.Ctl.waiters not discharged by retire: %+v", g.Obligations)
	}
}

// TestBoundContinuationMissingDischarge: the same shape with the bound
// continuation pointing at a method that never drains — the park is
// still flagged, so resolution adds only the edges the binding makes.
func TestBoundContinuationMissingDischarge(t *testing.T) {
	g := fixtureGraph(t, "boundmiss", []liveness.Controller{{Name: "boundmiss.Ctl", Recv: "Ctl"}})
	if len(g.Findings) != 1 {
		for _, f := range g.Findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want only the undischarged park", len(g.Findings))
	}
	f := wantFinding(t, g, "unguarded-park", "boundmiss.go:", "never woken")
	if !strings.Contains(f.Message, "boundmiss.Ctl.waiters") {
		t.Errorf("finding %q does not name the undischarged chain", f.Message)
	}
}

// TestOutstandingFileResource: a slice of record pointers with a drop
// helper is a transaction resource — its append is the allocation and
// the drop-helper call the free — while a free list that only pops its
// top and a peer table that is only appended to stay out.
func TestOutstandingFileResource(t *testing.T) {
	g := fixtureGraph(t, "file", []liveness.Controller{
		{Name: "file.Ctl", Recv: "Ctl", Handlers: []string{"recvFill"}},
	})
	for _, f := range g.Findings {
		t.Errorf("finding: %s", f)
	}
	if len(g.Resources) != 1 {
		t.Fatalf("resources = %+v, want only file.Ctl.txns", g.Resources)
	}
	r := g.Resources[0]
	if r.ID != "file.Ctl.txns" || r.Kind != "transaction" || len(r.Allocs) != 1 || len(r.Frees) != 1 {
		t.Fatalf("resource = %+v, want file.Ctl.txns as a transaction with one allocation and one free", r)
	}
	if !strings.HasPrefix(r.Allocs[0], "file.go:") || !strings.HasPrefix(r.Frees[0], "file.go:") {
		t.Errorf("resource sites %v / %v are not in file.go", r.Allocs, r.Frees)
	}
}

// TestPagedTableResource: a generic table whose pages are arrays of
// record pointers is a persistent resource, and storing a record into a
// page it returns is the allocation; a table of plain values is not a
// resource.
func TestPagedTableResource(t *testing.T) {
	g := fixtureGraph(t, "pages", []liveness.Controller{{Name: "pages.Ctl", Recv: "Ctl"}})
	for _, f := range g.Findings {
		t.Errorf("finding: %s", f)
	}
	if len(g.Resources) != 1 {
		t.Fatalf("resources = %+v, want only pages.Ctl.lines", g.Resources)
	}
	r := g.Resources[0]
	if r.ID != "pages.Ctl.lines" || r.Kind != "persistent" || len(r.Allocs) != 1 || len(r.Frees) != 0 {
		t.Fatalf("resource = %+v, want pages.Ctl.lines as a persistent resource with one allocation", r)
	}
	if !strings.HasPrefix(r.Allocs[0], "pages.go:") {
		t.Errorf("allocation site %v is not in pages.go", r.Allocs)
	}
}

// TestRepoTransactionTables: the checked-in certificate lists each L1's
// outstanding-miss file as a transaction resource with its allocation
// and free sites, and the registry's and directory's paged line tables
// as persistent resources with their allocation sites, so a refactor
// whose tables the extractor no longer recognizes cannot silently drop
// them from the graph (TestRepoLivenessClean ties the golden to a fresh
// extraction).
func TestRepoTransactionTables(t *testing.T) {
	g, err := liveness.ReadFile(filepath.Join(repoModuleDir(t), "docs", "liveness", "waitgraph.json"))
	if err != nil {
		t.Fatalf("golden: %v (run `make liveness`)", err)
	}
	for _, want := range []struct{ id, kind string }{
		{"denovo.L1.txns", "transaction"},
		{"mesi.L1.txns", "transaction"},
		{"denovo.Registry.lines", "persistent"},
		{"mesi.Directory.entries", "persistent"},
	} {
		found := false
		for _, r := range g.Resources {
			if r.ID != want.id {
				continue
			}
			found = true
			if r.Kind != want.kind || len(r.Allocs) == 0 || (len(r.Frees) == 0) != (want.kind == "persistent") {
				t.Errorf("%s = %+v, want a %s resource with allocation sites and, for a transaction, free sites", want.id, r, want.kind)
			}
		}
		if !found {
			t.Errorf("%s is missing from the certificate's resources: %+v", want.id, g.Resources)
		}
	}
}

// repoModuleDir walks up to the repository's own go.mod.
func repoModuleDir(t *testing.T) string {
	t.Helper()
	d, err := atlas.FindModuleDir(".")
	if err != nil {
		t.Fatalf("FindModuleDir: %v", err)
	}
	return d
}

// TestRepoLivenessClean certifies the real protocol packages: zero
// findings (the fixed trees stay silent — the fixture replicas above
// prove the rules would catch the pre-fix shapes), every obligation
// discharged, and the checked-in golden exactly matching a fresh
// extraction.
func TestRepoLivenessClean(t *testing.T) {
	moduleDir := repoModuleDir(t)
	module, err := atlas.ModulePath(moduleDir)
	if err != nil {
		t.Fatalf("ModulePath: %v", err)
	}
	fresh, err := liveness.ExtractDir(moduleDir, liveness.DefaultSpec(module))
	if err != nil {
		t.Fatalf("ExtractDir: %v", err)
	}
	for _, f := range fresh.Findings {
		t.Errorf("finding on the fixed tree: %s", f)
	}
	for _, o := range fresh.Obligations {
		if o.Status != "discharged" {
			t.Errorf("obligation not discharged: %s %s at %s", o.Rule, o.Subject, o.Pos)
		}
	}
	// The certificate is non-vacuous: the PR 5 and PR 6 shapes appear as
	// discharged obligations, not as silence.
	wantDischarged := map[string]bool{"mutual-park": false, "stale-retire": false, "unanswered-request": false, "class-cycle": false, "unguarded-park": false, "backoff-clamped": false}
	for _, o := range fresh.Obligations {
		wantDischarged[o.Rule] = true
	}
	for rule, seen := range wantDischarged {
		if !seen {
			t.Errorf("rule %s produced no obligations — the certificate is vacuous for it", rule)
		}
	}
	golden, err := liveness.ReadFile(filepath.Join(moduleDir, "docs", "liveness", "waitgraph.json"))
	if err != nil {
		t.Fatalf("golden: %v (run `make liveness`)", err)
	}
	if diffs := liveness.Diff(golden, fresh); len(diffs) > 0 {
		for _, d := range diffs {
			t.Errorf("waitgraph drift: %s", d)
		}
	}
	if !liveness.Equal(golden, fresh) {
		t.Errorf("golden waitgraph.json differs from a fresh extraction — run `make liveness`")
	}
}

// TestCertificateByteStable regenerates the certificate twice through
// the full serialization path and requires identical bytes.
func TestCertificateByteStable(t *testing.T) {
	moduleDir := repoModuleDir(t)
	module, err := atlas.ModulePath(moduleDir)
	if err != nil {
		t.Fatalf("ModulePath: %v", err)
	}
	paths := make([]string, 2)
	for i := range paths {
		g, err := liveness.ExtractDir(moduleDir, liveness.DefaultSpec(module))
		if err != nil {
			t.Fatalf("ExtractDir #%d: %v", i+1, err)
		}
		p := filepath.Join(t.TempDir(), "waitgraph.json")
		if err := g.WriteFile(p); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		paths[i] = p
	}
	a, _ := os.ReadFile(paths[0])
	b, _ := os.ReadFile(paths[1])
	if string(a) != string(b) {
		t.Fatalf("two regenerations differ byte-for-byte")
	}
}

// TestTypedMessageEdges: a send's kind resolves through a local to both
// handlers it can reach, and the self-posted continuation's arm method
// (issue, not a declared handler) is walked as Access's own code, so the
// message edges start at Access and issue is no node of its own.
func TestTypedMessageEdges(t *testing.T) {
	g := fixtureGraph(t, "cont", []liveness.Controller{
		{Name: "cont.Ctl", Recv: "Ctl", Handlers: []string{"recvA", "recvB"}},
	})
	for _, f := range g.Findings {
		t.Errorf("finding: %s", f)
	}
	want := map[string]bool{"cont.Ctl.recvA": false, "cont.Ctl.recvB": false}
	for _, e := range g.Edges {
		if e.From == "cont.Ctl.Access" && e.Kind == "message" && e.Class == "ClassLD" {
			if _, ok := want[e.To]; ok {
				want[e.To] = true
			}
		}
	}
	for to, seen := range want {
		if !seen {
			t.Errorf("no ClassLD message edge cont.Ctl.Access -> %s: %+v", to, g.Edges)
		}
	}
	for _, n := range g.Nodes {
		if n.ID == "cont.Ctl.issue" || n.ID == "cont.Ctl.recv" {
			t.Errorf("node %s: continuations and the receive function are not graph nodes", n.ID)
		}
	}
}

// TestUnresolvedMessageKindFails: a message whose kind no constant
// names cannot be mapped to a handler, so extraction fails instead of
// silently dropping the send.
func TestUnresolvedMessageKindFails(t *testing.T) {
	_, err := liveness.ExtractDir(filepath.Join("testdata", "livefix"), liveness.Spec{
		{Path: "livefix/badkind", Controllers: []liveness.Controller{{Name: "badkind.Ctl", Recv: "Ctl", Handlers: []string{"recvA"}}}},
	})
	if err == nil || !strings.Contains(err.Error(), "does not resolve") || !strings.Contains(err.Error(), "badkind.go:") {
		t.Fatalf("ExtractDir(badkind) = %v, want an unresolved-kind error at badkind.go", err)
	}
}
