package main

import (
	"os"
	"testing"
)

func TestParseTracesChargesLayers(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byLayer, total, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := 1e6
	want := map[string]float64{
		"denovo":        20 * ms,         // a map lookup is charged to its caller
		"runtime.alloc": (30 + 100) * ms, // mallocgc under a protocol frame; a GC worker
		"runtime.sched": 40 * ms,         // chanrecv under cpu
		"sim":           1500 * ms,
		"noc":           50 * ms, // an inlined leaf frame
		"workload":      60 * ms, // the benchmark's own frames
		"other":         (20 + 30) * ms,
		// the host-speed probe's 70ms and 10ms are in no layer and not in the total
	}
	var sum float64
	for l, w := range want {
		if !near(byLayer[l], w) {
			t.Errorf("%s = %v ns, want %v ns", l, byLayer[l], w)
		}
		sum += w
	}
	if !near(total, sum) || len(byLayer) != len(want) {
		t.Errorf("total %v ns over %v, want %v ns over the layers %v", total, byLayer, sum, want)
	}
}

func TestLayerOfWalksFromTheLeaf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "denovosync/internal/cache.(*Set).Fill", "denovosync/internal/mesi.(*L1).fill"}, "cache"},
		{[]string{"runtime.memmove", "runtime.growslice", "denovosync/internal/sim.(*Engine).push"}, "runtime.alloc"},
		{[]string{"runtime.gogo", "runtime.execute", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.GC", "main.cell.exec"}, "runtime.alloc"},
		{[]string{"denovosync/internal/lockfree.(*MSQueue).Enqueue"}, "workload"},
		{[]string{"denovosync/internal/proto.RegionSet.Has", "denovosync/internal/denovo.(*L1).SelfInvalidate"}, "other"},
		{[]string{"runtime.usleep"}, "other"},
		{[]string{"runtime.newobject", "main.hostProbe", "main.cell.exec"}, ""},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseValueUnits(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 1e7, "1.50s": 1.5e9, "250us": 2.5e5, "7ns": 7, "1.20mins": 72e9} {
		if got, err := parseValue(s); err != nil || !near(got, want) {
			t.Errorf("parseValue(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parseValue("3furlongs"); err == nil {
		t.Error("parseValue accepted an unknown unit")
	}
}
