package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// phase is what measuring one workload for a time budget produced.
type phase struct {
	samples           []sample // successful runs, in run order
	attempted, failed int
}

// measure runs the workload's grid round-robin within budget, and always
// completes at least one full pass. After the first pass it stops before
// a run that, taking as long as the cell's previous run, would end past
// the budget, so a run of the benchmark lasts the time it was given.
// Every run is an operation. It fails on an error, on a recovered panic,
// on a digest that differs from ref (nil: the seed has no reference
// digests), or on a digest that differs from the same cell's earlier run.
func measure(w workload, seed uint64, budget time.Duration, ref map[string]string, errs io.Writer) phase {
	var p phase
	first := make([]string, len(w.cells))
	took := make([]time.Duration, len(w.cells))
	t0 := time.Now()
	for i := 0; ; i++ {
		ci := i % len(w.cells)
		if i >= len(w.cells) && time.Since(t0)+took[ci] > budget {
			break
		}
		c := w.cells[ci]
		start := time.Now()
		s, err := c.exec(seed)
		took[ci] = time.Since(start)
		s.cell, s.pass = ci, i/len(w.cells)
		p.attempted++
		if err == nil {
			err = checkDigest(c.id, s.digest, ref, first[ci])
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(errs, "%s: %s: %v\n", w.name, c.id, err)
			continue
		}
		first[ci] = s.digest
		p.samples = append(p.samples, s)
	}
	return p
}

func checkDigest(id, got string, ref map[string]string, earlier string) error {
	if earlier != "" && got != earlier {
		return fmt.Errorf("nondeterministic: digest %.12s after %.12s on an earlier pass", got, earlier)
	}
	if ref == nil {
		return nil
	}
	want, ok := ref[id]
	switch {
	case !ok:
		return fmt.Errorf("no reference digest for this cell")
	case got != want:
		return fmt.Errorf("digest %.12s, want %.12s", got, want)
	}
	return nil
}

// summary condenses a phase. Per-grid times are the sum over cells of
// each cell's median time, each time first scaled to the reference host
// by the probe run just before it. The scaling removes the slow stretches
// that other tenants cause; the median removes the runs whose probe
// caught a burst that the run missed, or the other way round. A minimum
// would pick exactly those (see README.md).
type summary struct {
	wall, setup, run float64 // reference-host seconds per grid
	slowdown         float64 // median probe time over probeRef
	gcs              float64 // collections during the Run* calls, per grid
	grid             counts  // one run of every cell
	total            counts  // every run of the phase
	mallocs, bytes   uint64  // every run of the phase
}

func summarize(cells int, samples []sample) summary {
	var s summary
	byCell := make([][]sample, cells)
	for _, x := range samples {
		byCell[x.cell] = append(byCell[x.cell], x)
		s.total.add(x.counts)
		s.mallocs += x.mallocs
		s.bytes += x.allocBytes
	}
	for _, xs := range byCell {
		if len(xs) == 0 {
			continue
		}
		s.grid.add(xs[0].counts)
		s.wall += median(apply(xs, func(x sample) float64 { return x.scaled(x.wall()) }))
		s.setup += median(apply(xs, func(x sample) float64 { return x.scaled(x.setup) }))
		s.run += median(apply(xs, func(x sample) float64 { return x.scaled(x.run) }))
		s.gcs += median(apply(xs, func(x sample) float64 { return float64(x.gcs) }))
	}
	s.slowdown = median(apply(samples, func(x sample) float64 { return x.probe.Seconds() / probeRef.Seconds() }))
	return s
}

func apply(xs []sample, f func(sample) float64) []float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ratio is a/b, and 0 where b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metric struct {
	name, unit string
	value      float64
}

// endToEnd returns the metrics a user of the simulator sees.
func endToEnd(s summary, peakRSSMB float64) []metric {
	return []metric{
		{"wall_s", "s", s.wall},
		{"events_per_s", "1/s", ratio(float64(s.grid.events), s.run)},
		{"setup_s", "s", s.setup},
		{"peak_rss_mb", "MB", peakRSSMB},
	}
}

// perLayer returns the per-layer metrics: exact counts and runtime
// costs from the untraced phase u, self shares and per-unit costs from
// the traced phase t and its profile, and the cost of tracing.
func perLayer(u, t summary, shares map[string]float64, profileNS float64) []metric {
	g := u.grid
	ev := float64(u.total.events)
	ms := []metric{
		{"sim.events", "count", float64(g.events)},
		{"cpu.thread_ops", "count", float64(g.threadOps)},
		{"noc.messages", "count", float64(g.messages)},
		{"noc.flit_hops", "count", float64(g.flitHops)},
		{"cache.l1_accesses", "count", float64(g.l1Accesses)},
		{"cache.l1_miss_ratio", "ratio", ratio(float64(g.l1Misses), float64(g.l1Accesses))},
		{"mem.dram_accesses", "count", float64(g.dramAccesses)},
		{"runtime.allocs_per_event", "allocs/event", ratio(float64(u.mallocs), ev)},
		{"runtime.bytes_per_event", "B/event", ratio(float64(u.bytes), ev)},
		{"runtime.gc_cycles", "count", u.gcs},
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_share", "%", shares[l]})
	}
	// ns charged to the given layers per unit of work in the traced phase.
	cost := func(work uint64, ls ...string) float64 {
		var pct float64
		for _, l := range ls {
			pct += shares[l]
		}
		return ratio(pct/100*profileNS, float64(work))
	}
	tt := t.total
	return append(ms,
		metric{"sim.ns_per_event", "ns", cost(tt.events, "sim")},
		metric{"cpu.ns_per_op", "ns", cost(tt.threadOps, "cpu", "runtime.sched")},
		metric{"noc.ns_per_msg", "ns", cost(tt.messages, "noc")},
		metric{"coherence.ns_per_access", "ns", cost(tt.l1Accesses, "mesi", "denovo", "cache")},
		metric{"runtime.alloc_ns_per_event", "ns", cost(tt.events, "runtime.alloc")},
		metric{"trace.overhead", "ratio", ratio(t.wall, u.wall) - 1},
	)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
