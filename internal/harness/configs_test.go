package harness

import (
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
)

func TestConfigRegistry(t *testing.T) {
	cs := Configs()
	if len(cs) != 2 {
		t.Fatalf("Configs() = %d entries, want 2", len(cs))
	}
	if cs[0].Name != "mesh4x4-16c" || cs[1].Name != "mesh8x8-64c" {
		t.Fatalf("Configs() order = %q, %q", cs[0].Name, cs[1].Name)
	}
	for _, c := range cs {
		if c.Cores != c.MeshW*c.MeshH {
			t.Errorf("%s: cores %d != mesh %dx%d", c.Name, c.Cores, c.MeshW, c.MeshH)
		}
		p := c.Params()
		if p.Cores != c.Cores || p.MeshW != c.MeshW || p.MeshH != c.MeshH {
			t.Errorf("%s: Params() = %d cores %dx%d, want %d %dx%d",
				c.Name, p.Cores, p.MeshW, p.MeshH, c.Cores, c.MeshW, c.MeshH)
		}
		if p.WatchdogCycles != DefaultWatchdog {
			t.Errorf("%s: Params() watchdog %d, want harness default %d",
				c.Name, p.WatchdogCycles, DefaultWatchdog)
		}
	}
	if _, err := ConfigByName("mesh8x8-64c"); err != nil {
		t.Fatalf("ConfigByName(mesh8x8-64c): %v", err)
	}
	if _, err := ConfigByName("mesh2x2-4c"); err == nil {
		t.Fatal("ConfigByName(mesh2x2-4c): want error, got nil")
	}
}

// TestConfig64Smoke runs a small kernel on the named 64-core 8x8-mesh
// configuration and requires it to finish with every core accounted for.
func TestConfig64Smoke(t *testing.T) {
	c, err := ConfigByName("mesh8x8-64c")
	if err != nil {
		t.Fatal(err)
	}
	k, ok := kernels.ByID("tatas-counter")
	if !ok {
		t.Fatal("kernel tatas-counter not registered")
	}
	m := machine.New(c.Params(), machine.DeNovoSync, alloc.New())
	rs, err := kernels.Run(k, m, kernels.Config{Cores: c.Cores, Iters: 2, EqChecks: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.PerCore) != c.Cores {
		t.Fatalf("run reports %d cores, want %d", len(rs.PerCore), c.Cores)
	}
}
