package harness_test

import (
	"fmt"
	"strings"
	"testing"

	"denovosync/internal/exp"
	"denovosync/internal/harness"
	"denovosync/internal/machine"
)

var quick = exp.Options{Scale: 25} // 4 iterations per kernel

// reproduce builds a 16-core figure through the one figure definition.
func reproduce(t *testing.T, name string, o exp.Options) *harness.Figure {
	t.Helper()
	f, err := exp.Reproduce(name, 16, o)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParamsFor: a figure is built for one of the two Table 1 machines,
// 16 or 64 cores, and no other. Each kernel run of a core-dependent plan
// is on the machine asked for (an application run keeps its own size),
// and a 32-core figure is refused before anything runs.
func TestParamsFor(t *testing.T) {
	for _, name := range exp.FigureNames() {
		if name == "fig7" {
			continue // per-application machine sizes; the core count is ignored
		}
		for _, cores := range []int{16, 64} {
			p, err := exp.FigurePlan(name, cores, quick)
			if err != nil {
				t.Fatalf("%s at %dc: %v", name, cores, err)
			}
			if p.Cores != cores || len(p.Runs) == 0 {
				t.Errorf("%s at %dc: plan for %d cores with %d runs", name, cores, p.Cores, len(p.Runs))
			}
			for _, r := range p.Runs {
				if (r.Kind == exp.KindKernel && r.Cores != cores) || (r.Cores != 16 && r.Cores != 64) {
					t.Errorf("%s at %dc: run %s", name, cores, r)
				}
			}
		}
		if _, err := exp.FigurePlan(name, 32, quick); err == nil {
			t.Errorf("%s: FigurePlan accepted 32 cores", name)
		}
		if _, err := exp.Reproduce(name, 32, quick); err == nil {
			t.Errorf("%s: Reproduce accepted 32 cores", name)
		}
	}
}

// TestConfigRegistry: the figure registry the harness renders and checks.
// FigureNames lists 14 distinct figures, each plans under its own ID, an
// unknown name is refused, and the harness finds the paper's claims for
// exactly Figures 3-7, per machine size for Figures 3-6. A plan ID that
// drifted from the prefix ClaimsFor matches would silently drop that
// figure's claims from the gate.
func TestConfigRegistry(t *testing.T) {
	names := exp.FigureNames()
	if len(names) != 14 {
		t.Fatalf("FigureNames() = %d entries, want 14", len(names))
	}
	claimed := map[string]bool{"fig3": true, "fig4": true, "fig5": true, "fig6": true, "fig7": true}
	ids := map[string]string{}
	for _, name := range names {
		for _, cores := range []int{16, 64} {
			p, err := exp.FigurePlan(name, cores, quick)
			if err != nil {
				t.Fatalf("FigurePlan(%s, %d): %v", name, cores, err)
			}
			if prev, dup := ids[p.ID]; dup && prev != name {
				t.Errorf("%s and %s share the figure ID %q", prev, name, p.ID)
			}
			ids[p.ID] = name
			cs := harness.ClaimsFor(&harness.Figure{ID: p.ID, Cores: p.Cores})
			if claimed[name] != (len(cs) > 0) {
				t.Errorf("%s (%q): %d claims", name, p.ID, len(cs))
			}
			for _, c := range cs {
				if want := fmt.Sprintf("%s-%dc.", name, cores); name != "fig7" && !strings.HasPrefix(c.ID, want) {
					t.Errorf("%s at %dc: claim %s, want prefix %s", name, cores, c.ID, want)
				}
			}
		}
	}
	if len(ids) != 2*len(names)-1 { // fig7 has one ID at every size
		t.Errorf("%d distinct figure IDs for %d names", len(ids), len(names))
	}
	if _, err := exp.FigurePlan("fig99", 16, quick); err == nil {
		t.Error("FigurePlan(fig99): want error, got nil")
	}
	if _, err := exp.Reproduce("fig99", 16, quick); err == nil {
		t.Error("Reproduce(fig99): want error, got nil")
	}
}

func TestRenderAndCSV(t *testing.T) {
	f := reproduce(t, "fig6", quick)
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"central (UB)", "n-ary", "100.0", "barrier"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
	var csv strings.Builder
	f.CSV(&csv)
	head := strings.SplitN(csv.String(), "\n", 2)[0]
	for _, col := range []string{"figure", "exec_cycles", "traffic_SYNCH", "time_hw_backoff"} {
		if !strings.Contains(head, col) {
			t.Fatalf("CSV header missing %q: %s", col, head)
		}
	}
}

func TestGeoMean(t *testing.T) {
	f := reproduce(t, "fig4", quick)
	e, tr := f.GeoMeanVsMESI(machine.DeNovoSync)
	if e < 0.3 || e > 3 {
		t.Fatalf("implausible exec geomean %f", e)
	}
	if tr <= 0 || tr > 1.2 {
		t.Fatalf("implausible traffic geomean %f", tr)
	}
	// MESI vs itself is exactly 1.
	if e, tr := f.GeoMeanVsMESI(machine.MESI); e != 1 || tr != 1 {
		t.Fatalf("MESI self-ratio = %f, %f", e, tr)
	}
}

func TestRenderBars(t *testing.T) {
	f := reproduce(t, "fig4", quick)
	var sb strings.Builder
	f.RenderBars(&sb)
	out := sb.String()
	for _, want := range []string{"stacked bars", "legend:", "100.0%", "|"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bars missing %q", want)
		}
	}
	// Every MESI bar totals 100.0%.
	if strings.Count(out, "100.0%") < 6 {
		t.Fatalf("expected a 100%% MESI bar per workload:\n%s", out)
	}
}

func TestAblationInvalidateAll(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	f := reproduce(t, "invall", quick)
	if len(f.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(f.Rows))
	}
	// The invalidate-all fallback must never beat region annotations on
	// traffic for the data-heavy heap kernel (it refetches more).
	var region, all uint64
	for _, r := range f.Rows {
		if r.Workload == "tatas-heap" {
			switch r.Label {
			case "DS/regions":
				region = r.Stats.TotalTraffic
			case "DS/inv-all":
				all = r.Stats.TotalTraffic
			}
		}
	}
	if region == 0 || all == 0 {
		t.Fatal("missing variant rows")
	}
	if all < region {
		t.Fatalf("invalidate-all produced less traffic (%d) than regions (%d)", all, region)
	}
}

func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims need a real figure; skipped in -short mode")
	}
	f := reproduce(t, "fig4", exp.Options{Scale: 10})
	var sb strings.Builder
	pass, dev := harness.CheckClaims(f, &sb)
	if pass+dev != len(harness.Fig4Claims(16)) {
		t.Fatalf("claim count mismatch: %d+%d", pass, dev)
	}
	out := sb.String()
	if !strings.Contains(out, "fig4-16c.parity") {
		t.Fatalf("claims output missing IDs:\n%s", out)
	}
	// Ablation figures have no claims.
	if cs := harness.ClaimsFor(&harness.Figure{ID: "Ablation: x"}); cs != nil {
		t.Fatal("ablation figure matched claims")
	}
}
