package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// Two cells; cell 0 ran three times with one slow outlier, cell 1 twice,
// the second time while the probe took twice its reference time.
func testSamples() []sample {
	ms, ref := time.Millisecond, probeRef
	c0 := counts{events: 1000, threadOps: 400, messages: 100, flitHops: 300, l1Accesses: 500, l1Misses: 50, dramAccesses: 10}
	c1 := counts{events: 3000, threadOps: 600, messages: 300, flitHops: 900, l1Accesses: 1500, l1Misses: 250, dramAccesses: 30}
	return []sample{
		{cell: 0, pass: 0, setup: 2 * ms, run: 100 * ms, check: 1 * ms, probe: ref, counts: c0, mallocs: 2000, allocBytes: 64000, gcs: 1},
		{cell: 1, pass: 0, setup: 4 * ms, run: 300 * ms, check: 1 * ms, probe: ref, counts: c1, mallocs: 6000, allocBytes: 192000, gcs: 3},
		{cell: 0, pass: 1, setup: 2 * ms, run: 900 * ms, check: 1 * ms, probe: ref, counts: c0, mallocs: 2000, allocBytes: 64000, gcs: 5},
		{cell: 1, pass: 1, setup: 6 * ms, run: 500 * ms, check: 1 * ms, probe: 2 * ref, counts: c1, mallocs: 6000, allocBytes: 192000, gcs: 3},
		{cell: 0, pass: 2, setup: 8 * ms, run: 110 * ms, check: 1 * ms, probe: ref, counts: c0, mallocs: 2000, allocBytes: 64000, gcs: 1},
	}
}

func TestSummarizeScalesByProbeAndTakesPerCellMedians(t *testing.T) {
	s := summarize(2, testSamples())
	// cell 0 medians: setup 2ms, run 110ms, wall 119ms. cell 1's second
	// run scales to setup 3ms, run 250ms, wall 253.5ms; the medians of its
	// two runs are setup 3.5ms, run 275ms, wall 279.25ms. GC counts are
	// per-cell medians too: 1 and 3.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"setup", s.setup, 0.002 + 0.0035},
		{"run", s.run, 0.110 + 0.275},
		{"wall", s.wall, 0.119 + 0.27925},
		{"slowdown", s.slowdown, 1},
		{"gcs", s.gcs, 1 + 3},
		{"grid events", float64(s.grid.events), 4000},
		{"total events", float64(s.total.events), 3*1000 + 2*3000},
		{"mallocs", float64(s.mallocs), 3*2000 + 2*6000},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestMetricArithmetic(t *testing.T) {
	u := summarize(2, testSamples())
	e2e := map[string]float64{}
	for _, m := range endToEnd(u, 99) {
		e2e[m.name] = m.value
	}
	want := map[string]float64{"wall_s": 0.39825, "events_per_s": 4000 / 0.385, "setup_s": 0.0055, "peak_rss_mb": 99}
	for name, w := range want {
		if !near(e2e[name], w) {
			t.Errorf("%s = %v, want %v", name, e2e[name], w)
		}
	}

	// The traced phase ran every cell once, 10% slower; its profile holds
	// 2 s of CPU time.
	traced := testSamples()[:2]
	for i := range traced {
		traced[i].run = traced[i].run * 11 / 10
	}
	tr := summarize(2, traced)
	shares := map[string]float64{
		"sim": 20, "cpu": 5, "runtime.sched": 25, "noc": 4, "mesi": 6, "denovo": 3, "cache": 1,
		"runtime.alloc": 16, "mem": 2, "machine": 3, "workload": 10, "other": 5,
	}
	layer := map[string]float64{}
	for _, m := range perLayer(u, tr, shares, 2e9) {
		layer[m.name] = m.value
	}
	// Traced work: 4000 events, 1000 thread ops, 400 messages, 2000 L1
	// accesses. Untraced work: 9000 events, 18000 mallocs, 576000 bytes.
	want = map[string]float64{
		"sim.events":                 4000,
		"cpu.thread_ops":             1000,
		"noc.messages":               400,
		"noc.flit_hops":              1200,
		"cache.l1_accesses":          2000,
		"cache.l1_miss_ratio":        300.0 / 2000,
		"mem.dram_accesses":          40,
		"runtime.allocs_per_event":   2,
		"runtime.bytes_per_event":    64,
		"runtime.gc_cycles":          4,
		"sim.self_share":             20,
		"other.self_share":           5,
		"sim.ns_per_event":           0.20 * 2e9 / 4000,
		"cpu.ns_per_op":              0.30 * 2e9 / 1000,
		"noc.ns_per_msg":             0.04 * 2e9 / 400,
		"coherence.ns_per_access":    0.10 * 2e9 / 2000,
		"runtime.alloc_ns_per_event": 0.16 * 2e9 / 4000,
		"trace.overhead":             (0.113+0.335)/u.wall - 1,
	}
	for name, w := range want {
		if got, ok := layer[name]; !ok || !near(got, w) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	var sum float64
	for _, l := range layers {
		sum += layer[l+".self_share"]
	}
	if !near(sum, 100) {
		t.Errorf("self shares sum to %v, want 100", sum)
	}
}

func TestRatioOfZeroIsZero(t *testing.T) {
	if r := ratio(5, 0); r != 0 {
		t.Fatalf("ratio(5, 0) = %v, want 0", r)
	}
}
