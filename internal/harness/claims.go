package harness

import (
	"fmt"
	"io"
	"strings"

	"denovosync/internal/machine"
)

// A Claim is one qualitative result from the paper's evaluation, encoded
// as an executable predicate over a reproduced figure. Checking claims
// operationalizes "the shape holds": who wins, where the outliers are,
// and which mechanism shows up in the breakdowns.
type Claim struct {
	ID     string // stable identifier, e.g. "fig3.ds0-beats-mesi"
	Source string // the paper statement being checked (§ reference)
	Check  func(f *Figure) (ok bool, detail string)
}

// ratio returns prot's exec or traffic ratio vs MESI for workload wl
// (0 if missing).
func (f *Figure) ratio(wl string, prot machine.Protocol, traffic bool) float64 {
	base := f.baseline(wl)
	if base == nil {
		return 0
	}
	for _, r := range f.Rows {
		if r.Workload == wl && r.Protocol == prot && r.Label == "" {
			if traffic {
				if base.Stats.TotalTraffic == 0 {
					return 0
				}
				return float64(r.Stats.TotalTraffic) / float64(base.Stats.TotalTraffic)
			}
			if base.Stats.ExecTime == 0 {
				return 0
			}
			return float64(r.Stats.ExecTime) / float64(base.Stats.ExecTime)
		}
	}
	return 0
}

// countWhere counts workloads whose ratio satisfies pred.
func (f *Figure) countWhere(prot machine.Protocol, traffic bool, pred func(float64) bool) (n, total int) {
	for _, wl := range f.Workloads() {
		r := f.ratio(wl, prot, traffic)
		if r == 0 {
			continue
		}
		total++
		if pred(r) {
			n++
		}
	}
	return n, total
}

// Fig3Claims: §7.1.1 — TATAS lock kernels.
func Fig3Claims(cores int) []Claim {
	return []Claim{
		{
			ID:     fmt.Sprintf("fig3-%dc.ds0-beats-mesi", cores),
			Source: "§7.1.1: DeNovoSync0 outperforms MESI on both systems (except large CS at 16 cores)",
			Check: func(f *Figure) (bool, string) {
				n, total := f.countWhere(machine.DeNovoSync0, false, func(r float64) bool { return r < 1.0 })
				return n >= total-1, fmt.Sprintf("DS0 faster on %d/%d kernels", n, total)
			},
		},
		{
			ID:     fmt.Sprintf("fig3-%dc.ds-beats-ds0", cores),
			Source: "§7.1.1: DeNovoSync is comparable or better than DeNovoSync0 for all TATAS kernels",
			Check: func(f *Figure) (bool, string) {
				bad := 0
				for _, wl := range f.Workloads() {
					if f.ratio(wl, machine.DeNovoSync, false) > f.ratio(wl, machine.DeNovoSync0, false)*1.05 {
						bad++
					}
				}
				return bad == 0, fmt.Sprintf("%d kernels where DS > 1.05x DS0", bad)
			},
		},
		{
			ID:     fmt.Sprintf("fig3-%dc.traffic", cores),
			Source: "§7.1.1: DeNovoSync0 reduces network traffic (no invalidations; word-granularity responses)",
			Check: func(f *Figure) (bool, string) {
				n, total := f.countWhere(machine.DeNovoSync0, true, func(r float64) bool { return r < 1.0 })
				return n == total, fmt.Sprintf("DS0 traffic lower on %d/%d kernels", n, total)
			},
		},
	}
}

// Fig4Claims: §7.1.2 — array lock kernels.
func Fig4Claims(cores int) []Claim {
	return []Claim{
		{
			ID:     fmt.Sprintf("fig4-%dc.parity", cores),
			Source: "§7.1.2: comparable or better performance except heap",
			Check: func(f *Figure) (bool, string) {
				bad := []string{}
				for _, wl := range f.Workloads() {
					if wl == "heap" {
						continue
					}
					if f.ratio(wl, machine.DeNovoSync, false) > 1.10 {
						bad = append(bad, wl)
					}
				}
				return len(bad) == 0, "DS >1.10x on: " + strings.Join(bad, ",")
			},
		},
		{
			ID:     fmt.Sprintf("fig4-%dc.heap-worse", cores),
			Source: "§7.1.2: heap performs worse on DeNovo (conservative static self-invalidations)",
			Check: func(f *Figure) (bool, string) {
				r := f.ratio("heap", machine.DeNovoSync, false)
				return r > 1.0, fmt.Sprintf("heap DS/M = %.2fx", r)
			},
		},
		{
			ID:     fmt.Sprintf("fig4-%dc.no-backoff-effect", cores),
			Source: "§7.1.2: the single-reader design of array locks does not benefit from backoff (DS ≈ DS0)",
			Check: func(f *Figure) (bool, string) {
				worst := 0.0
				for _, wl := range f.Workloads() {
					d := f.ratio(wl, machine.DeNovoSync, false) / f.ratio(wl, machine.DeNovoSync0, false)
					if d > worst {
						worst = d
					}
				}
				return worst < 1.08, fmt.Sprintf("max DS/DS0 = %.2fx", worst)
			},
		},
		{
			ID:     fmt.Sprintf("fig4-%dc.traffic", cores),
			Source: "§7.1.2: reduces network traffic by ~64% on average",
			Check: func(f *Figure) (bool, string) {
				_, tr := f.GeoMeanVsMESI(machine.DeNovoSync)
				return tr < 0.6, fmt.Sprintf("DS traffic geomean %.2fx", tr)
			},
		},
	}
}

// Fig5Claims: §7.1.3 — non-blocking algorithms.
func Fig5Claims(cores int) []Claim {
	claims := []Claim{
		{
			ID:     fmt.Sprintf("fig5-%dc.traffic", cores),
			Source: "§7.1.3: DeNovoSync traffic well below MESI (54-60% better)",
			Check: func(f *Figure) (bool, string) {
				_, tr := f.GeoMeanVsMESI(machine.DeNovoSync)
				return tr < 0.7, fmt.Sprintf("DS traffic geomean %.2fx", tr)
			},
		},
	}
	if cores >= 64 {
		claims = append(claims,
			Claim{
				ID:     "fig5-64c.ds0-pathology",
				Source: "§7.1.3: DeNovoSync0 performs worse than MESI on some kernels at 64 cores (read-registration ping-pong)",
				Check: func(f *Figure) (bool, string) {
					n, total := f.countWhere(machine.DeNovoSync0, false, func(r float64) bool { return r > 1.0 })
					return n >= 1, fmt.Sprintf("DS0 slower than MESI on %d/%d kernels", n, total)
				},
			},
			Claim{
				ID:     "fig5-64c.backoff-recovers",
				Source: "§7.1.3: DeNovoSync performs much better than DeNovoSync0 at 64 cores (30% average)",
				Check: func(f *Figure) (bool, string) {
					e0, _ := f.GeoMeanVsMESI(machine.DeNovoSync0)
					e, _ := f.GeoMeanVsMESI(machine.DeNovoSync)
					return e < e0*0.9, fmt.Sprintf("DS %.2fx vs DS0 %.2fx", e, e0)
				},
			})
	}
	return claims
}

// Fig6Claims: §7.1.4 — barriers.
func Fig6Claims(cores int) []Claim {
	return []Claim{
		{
			ID:     fmt.Sprintf("fig6-%dc.tree-parity", cores),
			Source: "§7.1.4: all protocols behave similarly for tree barriers (single producer/consumer per flag)",
			Check: func(f *Figure) (bool, string) {
				worst := 0.0
				for _, wl := range []string{"tree", "n-ary", "tree (UB)", "n-ary (UB)"} {
					if r := f.ratio(wl, machine.DeNovoSync, false); r > worst {
						worst = r
					}
				}
				return worst < 1.10, fmt.Sprintf("worst tree-family DS/M = %.2fx", worst)
			},
		},
		{
			ID:     fmt.Sprintf("fig6-%dc.tree-traffic", cores),
			Source: "§7.1.4: DeNovo much lower traffic for tree barriers (67% average)",
			Check: func(f *Figure) (bool, string) {
				worst := 0.0
				for _, wl := range []string{"tree", "n-ary", "tree (UB)", "n-ary (UB)"} {
					if r := f.ratio(wl, machine.DeNovoSync, true); r > worst {
						worst = r
					}
				}
				return worst < 0.6, fmt.Sprintf("worst tree-family DS/M traffic = %.2fx", worst)
			},
		},
		{
			ID:     fmt.Sprintf("fig6-%dc.central-ds-damps", cores),
			Source: "§7.1.4: DeNovoSync mitigates the centralized barrier's registration ping-pong vs DeNovoSync0",
			Check: func(f *Figure) (bool, string) {
				t0 := f.ratio("central (UB)", machine.DeNovoSync0, true)
				t := f.ratio("central (UB)", machine.DeNovoSync, true)
				return t <= t0*1.02, fmt.Sprintf("central-UB traffic DS %.2fx vs DS0 %.2fx", t, t0)
			},
		},
	}
}

// Fig7Claims: §7.2 — applications.
func Fig7Claims() []Claim {
	return []Claim{
		{
			ID:     "fig7.comparable-time",
			Source: "§7.2: DeNovoSync provides comparable execution time (better on average)",
			Check: func(f *Figure) (bool, string) {
				e, _ := f.GeoMeanVsMESI(machine.DeNovoSync)
				return e < 1.05, fmt.Sprintf("DS exec geomean %.2fx", e)
			},
		},
		{
			ID:     "fig7.lower-traffic",
			Source: "§7.2: DeNovoSync is 24% better on network traffic on average",
			Check: func(f *Figure) (bool, string) {
				_, tr := f.GeoMeanVsMESI(machine.DeNovoSync)
				return tr < 0.9, fmt.Sprintf("DS traffic geomean %.2fx", tr)
			},
		},
		{
			ID:     "fig7.winners",
			Source: "§7.2: noticeably better for LU, water, ocean, and ferret",
			Check: func(f *Figure) (bool, string) {
				bad := []string{}
				for _, wl := range []string{"LU", "water", "ocean", "ferret"} {
					if f.ratio(wl, machine.DeNovoSync, false) > 0.95 {
						bad = append(bad, wl)
					}
				}
				return len(bad) == 0, "not noticeably better on: " + strings.Join(bad, ",")
			},
		},
		{
			ID:     "fig7.barrier-only-parity",
			Source: "§7.2: barrier-only applications are comparable (blackscholes, swaptions, FFT)",
			Check: func(f *Figure) (bool, string) {
				worst, which := 0.0, ""
				for _, wl := range []string{"blackscholes", "swaptions", "FFT"} {
					if r := f.ratio(wl, machine.DeNovoSync, false); r > worst {
						worst, which = r, wl
					}
				}
				return worst < 1.20, fmt.Sprintf("worst = %s at %.2fx", which, worst)
			},
		},
	}
}

// ClaimsFor returns the claim set matching a figure of the fig3..fig7
// plans (empty for ablations).
func ClaimsFor(f *Figure) []Claim {
	switch {
	case strings.HasPrefix(f.ID, "Figure 3"):
		return Fig3Claims(f.Cores)
	case strings.HasPrefix(f.ID, "Figure 4"):
		return Fig4Claims(f.Cores)
	case strings.HasPrefix(f.ID, "Figure 5"):
		return Fig5Claims(f.Cores)
	case strings.HasPrefix(f.ID, "Figure 6"):
		return Fig6Claims(f.Cores)
	case strings.HasPrefix(f.ID, "Figure 7"):
		return Fig7Claims()
	}
	return nil
}

// CheckClaims evaluates the figure's claims and writes one verdict line
// each; it returns the pass/deviation counts.
func CheckClaims(f *Figure, w io.Writer) (pass, deviations int) {
	for _, c := range ClaimsFor(f) {
		ok, detail := c.Check(f)
		verdict := "HOLDS    "
		if !ok {
			verdict = "DEVIATES "
			deviations++
		} else {
			pass++
		}
		fmt.Fprintf(w, "%s %-28s %s (%s)\n", verdict, c.ID, c.Source, detail)
	}
	return pass, deviations
}
