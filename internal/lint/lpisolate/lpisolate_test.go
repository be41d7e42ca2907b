package lpisolate_test

import (
	"path/filepath"
	"strings"
	"testing"

	"denovosync/internal/lint/atlas"
	"denovosync/internal/lint/lpisolate"
)

// fixtureModel is the ownership world of testdata/isofix: one tile
// controller type, a shared fabric with per-node slots, and a host
// orchestrator standing in for the engine.
func fixtureModel() *lpisolate.Model {
	return &lpisolate.Model{
		Packages: []string{"tiles", "fabric", "host"},
		Seeds: map[string]string{
			"tiles.Ctrl": "tile",
			"fabric.Net": "fabric",
			"host.Host":  "host",
		},
		TileControllers: map[string]bool{"tiles.Ctrl": true},
		Shared:          map[string]bool{"fabric": true},
		Sliced:          map[string]bool{"fabric.Net.slots": true},
		Wiring:          map[string]bool{},
		MessageFns:      map[string]bool{"fabric.Net.Send": true},
		Sanctioned:      map[string]bool{"fabric.Net.ScheduleCall": true},
		PackageDomains: map[string]string{
			"tiles": "tile", "fabric": "fabric", "host": "host",
		},
	}
}

func extractFixture(t *testing.T) *lpisolate.Atlas {
	t.Helper()
	a, err := lpisolate.ExtractDir(filepath.Join("testdata", "isofix"), fixtureModel())
	if err != nil {
		t.Fatalf("ExtractDir(isofix): %v", err)
	}
	return a
}

// TestFixtureFindings proves the prover catches every planted cross-tile
// sharing shape: a shared peer pointer, slice-of-pointer and map-value
// views, an unaudited injected hook, a host-state capture run in tile
// context, a mutating interface call, and a peer's mutating method handed
// to the sanctioned event API.
func TestFixtureFindings(t *testing.T) {
	a := extractFixture(t)
	want := []struct{ file, substr string }{
		{"tiles/tiles.go", "cross-tile write: tiles.Ctrl.PlantNext mutates tiles.Ctrl.count"},
		{"tiles/tiles.go", "cross-tile write: tiles.Ctrl.PlantSlice mutates tiles.Ctrl.count"},
		{"tiles/tiles.go", "cross-tile write: tiles.Ctrl.PlantMap mutates tiles.Ctrl.count"},
		{"tiles/tiles.go", "cross-tile call: tiles.Ctrl.PlantScheduled invokes mutating tiles.Ctrl.addCount on a peer controller"},
		{"tiles/tiles.go", "invoking injected hook tiles.Ctrl.hook without a //lpisolate:boundary"},
		{"host/host.go", "cross-domain write: tile context mutates host-owned host.Host.started"},
		{"host/host.go", "cross-tile call: host.Host.Poke invokes mutating tiles.Mut.Bump on a peer controller"},
	}
	for _, w := range want {
		found := false
		for _, f := range a.Findings {
			if strings.HasPrefix(f.Pos, w.file) && strings.Contains(f.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding %q in %s", w.substr, w.file)
		}
	}
	if len(a.Findings) != len(want) {
		for _, f := range a.Findings {
			t.Logf("finding: %s: %s", f.Pos, f.Message)
		}
		t.Errorf("got %d findings, want exactly %d", len(a.Findings), len(want))
	}
}

// TestFixtureSanctionedPaths proves the legal mediation shapes are
// recorded as crossings, not findings: Send-mediated peer mutation, the
// boundary-audited observer, Set* wiring, and the audited fabric queue.
func TestFixtureSanctionedPaths(t *testing.T) {
	a := extractFixture(t)
	want := []struct{ kind, detail string }{
		{"message", "fabric.Net.Send"},
		{"mediated", "tiles.Ctrl.recvBump"},
		{"boundary", "tiles.Ctrl.obs"},
		{"wiring", "tiles.Ctrl.SetObserver"},
		{"wiring", "tiles.Ctrl.SetHook"},
		{"wiring", "tiles.NewCtrl"},
		{"boundary", "fabric.Net.Drain"},
	}
	for _, w := range want {
		found := false
		for _, c := range a.Crossings {
			if c.Kind == w.kind && c.Detail == w.detail {
				found = true
				break
			}
		}
		if !found {
			for _, c := range a.Crossings {
				t.Logf("crossing: %s %s %s->%s at %s", c.Kind, c.Detail, c.From, c.To, c.Pos)
			}
			t.Fatalf("missing %s crossing for %s", w.kind, w.detail)
		}
	}
	for _, f := range a.Findings {
		if strings.Contains(f.Message, "SendBump") || strings.Contains(f.Message, "recvBump") {
			t.Errorf("sanctioned Send-mediated path flagged: %s: %s", f.Pos, f.Message)
		}
		if strings.Contains(f.Message, "ScheduleOwn") {
			t.Errorf("sanctioned own-method schedule flagged: %s: %s", f.Pos, f.Message)
		}
	}
}

// TestFixtureLocationClasses spot-checks the location table: sliced
// fabric slots, the injected-vs-boundary hook split, and the shared-
// domain policy holding (no plain mutable fabric state).
func TestFixtureLocationClasses(t *testing.T) {
	a := extractFixture(t)
	classes := map[string]string{}
	for _, l := range a.Locations {
		classes[l.Owner+"."+l.Field] = l.Class
	}
	want := map[string]string{
		"fabric.Net.slots":  "sliced",
		"fabric.slot.sent":  "sliced",
		"fabric.Net.queue":  "boundary",
		"tiles.Ctrl.obs":    "boundary",
		"tiles.Ctrl.hook":   "injected",
		"tiles.Ctrl.count":  "plain",
		"host.Host.started": "plain",
	}
	for k, v := range want {
		if classes[k] != v {
			t.Errorf("%s: class %q, want %q", k, classes[k], v)
		}
	}
	if d := a.Domains["fabric.slot"]; d != "fabric" {
		t.Errorf("fabric.slot domain %q, want fabric (inherited through Net.slots)", d)
	}
}

// TestRepoAtlasClean regenerates the ownership atlas for the real tree:
// it must have zero findings and match the checked-in golden byte for
// byte — the same gate `make isolate-check` enforces.
func TestRepoAtlasClean(t *testing.T) {
	dir, err := atlas.FindModuleDir(".")
	if err != nil {
		t.Fatalf("FindModuleDir: %v", err)
	}
	fresh, err := lpisolate.ExtractDir(dir, lpisolate.DefaultModel())
	if err != nil {
		t.Fatalf("ExtractDir(repo): %v", err)
	}
	for _, f := range fresh.Findings {
		t.Errorf("finding: %s: %s", f.Pos, f.Message)
	}
	golden, err := lpisolate.ReadFile(filepath.Join(dir, "docs", "isolation", "ownership.json"))
	if err != nil {
		t.Fatalf("reading golden (run `make isolate`): %v", err)
	}
	if !lpisolate.Equal(golden, fresh) {
		for _, d := range lpisolate.Diff(golden, fresh) {
			t.Errorf("drift: %s", d)
		}
		t.Fatal("ownership atlas is stale — run `make isolate`")
	}
}
