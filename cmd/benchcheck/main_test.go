package main

import "testing"

// TestGateDefaultTolerance pins the gate at the -tolerance fraction: a
// row within it passes, a row beyond it or missing fails.
func TestGateDefaultTolerance(t *testing.T) {
	base := &baseline{Benchmarks: map[string]float64{"internal/sim.BenchmarkX": 100}}
	if _, failed := gate(base, 1.0, map[string]float64{"internal/sim.BenchmarkX": 199}); failed != 0 {
		t.Errorf("1.99x within +100%% must pass")
	}
	if _, failed := gate(base, 1.0, map[string]float64{"internal/sim.BenchmarkX": 201}); failed != 1 {
		t.Errorf("2.01x beyond +100%% must fail")
	}
	if _, failed := gate(base, 1.0, map[string]float64{}); failed != 1 {
		t.Errorf("a missing measurement must fail the gate")
	}
}
