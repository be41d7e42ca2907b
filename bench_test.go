package denovosync_test

// One benchmark per table/figure of the paper's evaluation (§7). Each
// bench regenerates its figure's data at a reduced workload scale (the
// full-scale regeneration is `go run ./cmd/paperbench`) and reports the
// paper's two headline metrics as custom benchmark outputs:
//
//	DS0-exec-vs-MESI, DS-exec-vs-MESI       (geomean execution-time ratio)
//	DS0-traffic-vs-MESI, DS-traffic-vs-MESI (geomean network-traffic ratio)
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"denovosync"
)

// benchOptions is the reduced scale used inside testing.B loops.
var benchOptions = denovosync.FigureOptions{Scale: 10}

func reportFigure(b *testing.B, f *denovosync.Figure, withDS0 bool) {
	b.Helper()
	if withDS0 {
		e0, t0 := f.GeoMeanVsMESI(denovosync.DeNovoSync0)
		b.ReportMetric(e0, "DS0-exec-vs-MESI")
		b.ReportMetric(t0, "DS0-traffic-vs-MESI")
	}
	e, tr := f.GeoMeanVsMESI(denovosync.DeNovoSync)
	b.ReportMetric(e, "DS-exec-vs-MESI")
	b.ReportMetric(tr, "DS-traffic-vs-MESI")
}

// BenchmarkTable1 measures raw simulator throughput on the Table 1
// configurations: a cold-to-hot private-data sweep per core (the machine
// model itself, no protocol contention).
func BenchmarkTable1(b *testing.B) {
	for _, cores := range []int{16, 64} {
		cores := cores
		b.Run(map[int]string{16: "16c", 64: "64c"}[cores], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				space := denovosync.NewSpace()
				region := space.Region("priv")
				var params denovosync.Params
				if cores == 16 {
					params = denovosync.Params16()
				} else {
					params = denovosync.Params64()
				}
				bases := make([]denovosync.Addr, cores)
				for j := range bases {
					bases[j] = space.AllocAligned(64, region)
				}
				m := denovosync.NewMachine(params, denovosync.DeNovoSync, space)
				_, err := m.Run("table1", func(t *denovosync.Thread) {
					base := bases[t.ID]
					for w := 0; w < 64; w++ {
						t.Store(base+denovosync.Addr(w*4), uint64(w))
					}
					t.Fence()
					for w := 0; w < 64; w++ {
						_ = t.Load(base + denovosync.Addr(w*4))
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3TATASLocks16 regenerates Figure 3 (a,b): TATAS kernels, 16 cores.
func BenchmarkFig3TATASLocks16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig3", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig3TATASLocks64 regenerates Figure 3 (c,d): TATAS kernels, 64 cores.
func BenchmarkFig3TATASLocks64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig3", 64, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig4ArrayLocks16 regenerates Figure 4 (a,b): array locks, 16 cores.
func BenchmarkFig4ArrayLocks16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig4", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig4ArrayLocks64 regenerates Figure 4 (c,d): array locks, 64 cores.
func BenchmarkFig4ArrayLocks64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig4", 64, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig5NonBlocking16 regenerates Figure 5 (a,b): non-blocking
// algorithms, 16 cores.
func BenchmarkFig5NonBlocking16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig5", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig5NonBlocking64 regenerates Figure 5 (c,d): non-blocking
// algorithms, 64 cores — the high-contention case where DeNovoSync0's
// registration ping-pong appears and DeNovoSync's backoff recovers it.
func BenchmarkFig5NonBlocking64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig5", 64, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig6Barriers16 regenerates Figure 6 (a,b): barriers, 16 cores.
func BenchmarkFig6Barriers16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig6", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig6Barriers64 regenerates Figure 6 (c,d): barriers, 64 cores.
func BenchmarkFig6Barriers64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig6", 64, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkFig7Applications regenerates Figure 7 (a,b): the 13
// application models on MESI vs DeNovoSync.
func BenchmarkFig7Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("fig7", 0, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, false)
	}
}

// BenchmarkAblationSWBackoff regenerates the §7.1.1 software-backoff
// sensitivity study (16 cores for bench brevity).
func BenchmarkAblationSWBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("swbackoff", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkAblationPadding regenerates the §7.1.1 lock-padding study.
func BenchmarkAblationPadding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("padding", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkAblationEqChecks regenerates the §7.1.3 equality-check study.
func BenchmarkAblationEqChecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := denovosync.Reproduce("eqchecks", 16, benchOptions)
		if err != nil {
			b.Fatal(err)
		}
		reportFigure(b, f, true)
	}
}

// BenchmarkAblationBackoffParams sweeps the hardware-backoff design
// parameters (counter width, default increment) on the M-S queue.
func BenchmarkAblationBackoffParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := denovosync.Reproduce("hwparams", 16, benchOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures raw event-dispatch rate — the
// simulator substrate itself.
func BenchmarkEngineThroughput(b *testing.B) {
	space := denovosync.NewSpace()
	ctr := space.AllocPadded(space.Region("sync"))
	m := denovosync.NewMachine(denovosync.Params16(), denovosync.DeNovoSync, space)
	b.ResetTimer()
	done := false
	_, err := m.Run("engine", func(t *denovosync.Thread) {
		if t.ID != 0 {
			return
		}
		for i := 0; i < b.N; i++ {
			t.FetchAdd(ctr, 1)
		}
		done = true
	})
	if err != nil || !done {
		b.Fatal(err)
	}
}
