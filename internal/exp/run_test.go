package exp

import (
	"strings"
	"testing"
)

func TestRunKeyProperties(t *testing.T) {
	base := Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "DS", Cores: 16, EqChecks: -1}
	k := base.Key()
	if len(k) != 16 {
		t.Fatalf("key %q: want 16 hex digits", k)
	}
	if base.Key() != k {
		t.Fatalf("key is not stable across calls")
	}

	// Cosmetic fields must not affect the key (relabeling a figure must
	// not invalidate a journal).
	cosmetic := base
	cosmetic.Display, cosmetic.Label = "counter", "DS/paper"
	if cosmetic.Key() != k {
		t.Errorf("Display/Label changed the key: %s vs %s", cosmetic.Key(), k)
	}

	// Every semantic field must affect the key.
	mutations := map[string]func(*Run){
		"Kind":            func(r *Run) { r.Kind = KindApp },
		"Workload":        func(r *Run) { r.Workload = "tatas-heap" },
		"Protocol":        func(r *Run) { r.Protocol = "M" },
		"Cores":           func(r *Run) { r.Cores = 64 },
		"Iters":           func(r *Run) { r.Iters = 7 },
		"EqChecks":        func(r *Run) { r.EqChecks = 0 },
		"GapMin":          func(r *Run) { r.GapMin = 400 },
		"GapMax":          func(r *Run) { r.GapMax = 501 },
		"SWBackoffMin":    func(r *Run) { r.SWBackoffMin = 128 },
		"SWBackoffMax":    func(r *Run) { r.SWBackoffMax = 2048 },
		"NoPadding":       func(r *Run) { r.NoPadding = true },
		"InvalidateAll":   func(r *Run) { r.InvalidateAll = true },
		"ForceMCS":        func(r *Run) { r.ForceMCS = true },
		"UseSignatures":   func(r *Run) { r.UseSignatures = true },
		"Scale":           func(r *Run) { r.Scale = 10 },
		"BackoffBits":     func(r *Run) { r.BackoffBits = 6 },
		"Increment":       func(r *Run) { r.Increment = 256 },
		"Signatures":      func(r *Run) { r.Signatures = true },
		"LineGranularity": func(r *Run) { r.LineGranularity = true },
		"LinkContention":  func(r *Run) { r.LinkContention = true },
	}
	for field, mutate := range mutations {
		m := base
		mutate(&m)
		if m.Key() == k {
			t.Errorf("mutating %s did not change the key", field)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	cases := []struct {
		name string
		run  Run
		want string
	}{
		{"unknown kernel", Run{Kind: KindKernel, Workload: "nope", Protocol: "M", Cores: 16}, "unknown kernel"},
		{"unknown app", Run{Kind: KindApp, Workload: "nope", Protocol: "M", Cores: 16}, "unknown app"},
		{"unknown protocol", Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "X", Cores: 16}, "unknown protocol"},
		{"bad cores", Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "M", Cores: 12}, "unsupported core count"},
		{"bad kind", Run{Kind: "job", Workload: "tatas-counter", Protocol: "M", Cores: 16}, "unknown run kind"},
	}
	for _, c := range cases {
		if _, err := Execute(c.run); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got err %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestExecuteKernelRun(t *testing.T) {
	rs, err := Execute(Run{
		Kind: KindKernel, Workload: "tatas-counter", Protocol: "DS",
		Cores: 16, Iters: 2, EqChecks: -1,
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rs.ExecTime == 0 || rs.TotalTraffic == 0 {
		t.Errorf("implausible stats: exec=%d traffic=%d", rs.ExecTime, rs.TotalTraffic)
	}
}

// TestRunParams: every run builds the Table 1 machine for its core count
// with the 100M-cycle watchdog armed, so a hang in any figure, sweep or
// manifest run aborts with a diagnostic instead of spinning to the event
// limit; machine overrides apply on top.
func TestRunParams(t *testing.T) {
	for _, c := range []struct{ cores, meshW, meshH int }{{16, 4, 4}, {64, 8, 8}} {
		p, err := Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "DS", Cores: c.cores}.params()
		if err != nil {
			t.Fatal(err)
		}
		if p.Cores != c.cores || p.MeshW != c.meshW || p.MeshH != c.meshH {
			t.Errorf("%dc: params = %d cores on %dx%d, want %dx%d", c.cores, p.Cores, p.MeshW, p.MeshH, c.meshW, c.meshH)
		}
		if p.WatchdogCycles != 100_000_000 {
			t.Errorf("%dc: watchdog = %d cycles, want 100000000", c.cores, p.WatchdogCycles)
		}
	}
	p, err := Run{Cores: 64, BackoffBits: 6, Increment: 256, Signatures: true, LineGranularity: true, LinkContention: true}.params()
	if err != nil {
		t.Fatal(err)
	}
	if p.BackoffBits != 6 || p.DefaultIncrement != 256 || !p.Signatures || !p.LineGranularity || !p.LinkContention {
		t.Errorf("overrides not applied: %+v", p)
	}
	if p.WatchdogCycles != 100_000_000 {
		t.Errorf("overrides disarmed the watchdog: %d cycles", p.WatchdogCycles)
	}
	if _, err := (Run{Cores: 32}).params(); err == nil {
		t.Error("params accepted 32 cores")
	}
}

func TestManifestExpand(t *testing.T) {
	eq := 0
	m := Manifest{
		Name:      "grid",
		Kernels:   []string{"tatas-counter", "nb-m-s-queue"},
		Protocols: []string{"M", "DS"},
		Cores:     []int{16, 64},
		Iters:     []int{4},
		Gaps:      []int64{400, 800},
		EqChecks:  &eq,
	}
	p, err := m.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if want := 2 * 2 * 2 * 2; len(p.Runs) != want {
		t.Fatalf("expanded %d runs, want %d", len(p.Runs), want)
	}
	for _, r := range p.Runs {
		if r.EqChecks != 0 {
			t.Errorf("EqChecks not propagated: %+v", r)
		}
		if r.GapMin == 0 || r.GapMax != r.GapMin+r.GapMin/4+1 {
			t.Errorf("gap window wrong: [%d,%d)", r.GapMin, r.GapMax)
		}
	}

	// Omitted EqChecks keeps the as-adapted default.
	p2, err := Manifest{Name: "d", Kernels: []string{"tatas-counter"}}.Expand()
	if err != nil {
		t.Fatalf("Expand default: %v", err)
	}
	if len(p2.Runs) != 3 || p2.Runs[0].EqChecks != -1 {
		t.Fatalf("defaults wrong: %d runs, EqChecks %d", len(p2.Runs), p2.Runs[0].EqChecks)
	}

	for _, bad := range []Manifest{
		{Kernels: []string{"tatas-counter"}},                                      // no name
		{Name: "x"},                                                               // no workloads
		{Name: "x", Kernels: []string{"nope"}},                                    // unknown kernel
		{Name: "x", Apps: []string{"nope"}},                                       // unknown app
		{Name: "x", Kernels: []string{"tatas-counter"}, Cores: []int{32}},         // bad cores
		{Name: "x", Kernels: []string{"tatas-counter"}, Protocols: []string{"Q"}}, // bad protocol
		{Name: "x", Apps: []string{"lu"}, Cores: []int{16, 64}},                   // apps pin cores
	} {
		if _, err := bad.Expand(); err == nil {
			t.Errorf("Expand(%+v): want error", bad)
		}
	}
}
