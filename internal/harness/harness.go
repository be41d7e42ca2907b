// Package harness renders and checks reproduced figures: every figure of
// the paper's evaluation (§7) and each ablation study, as normalized
// tables, stacked bars or CSV, with the geometric-mean summaries and the
// paper's qualitative claims evaluated against them. The figures
// themselves are defined and run by internal/exp (exp.FigurePlan,
// exp.Reproduce).
package harness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"denovosync/internal/machine"
	"denovosync/internal/proto"
	"denovosync/internal/stats"
)

// Row is one (workload, protocol) result.
type Row struct {
	Workload string
	Protocol machine.Protocol
	// Label overrides the protocol abbreviation in rendered tables
	// (used by parameter-sweep ablations).
	Label string
	Stats *stats.RunStats
}

// label returns the display label for the row's protocol column.
func (r *Row) label() string {
	if r.Label != "" {
		return r.Label
	}
	return r.Protocol.Short()
}

// Figure is one reproduced figure: a set of workloads, each run under a
// set of protocols on one machine size.
type Figure struct {
	ID    string
	Title string
	Cores int
	Rows  []Row
}

// baseline returns the MESI row for a workload (normalization reference).
func (f *Figure) baseline(workload string) *Row {
	for i := range f.Rows {
		r := &f.Rows[i]
		if r.Workload == workload && r.Protocol == machine.MESI {
			return r
		}
	}
	return nil
}

// Workloads returns the distinct workload names in row order.
func (f *Figure) Workloads() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range f.Rows {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// pct formats v as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%6.1f", v*100) }

// RenderTime writes the execution-time table, normalized to MESI per
// workload (parts (a)/(c) of the kernel figures; Figure 7a for apps).
func (f *Figure) RenderTime(w io.Writer) {
	fmt.Fprintf(w, "%s — execution time (%% of MESI; components are %% of MESI total)\n", f.heading())
	fmt.Fprintf(w, "%-14s %-12s %7s | %8s %8s %8s %8s %8s %8s\n",
		"workload", "prot", "total",
		"nonsynch", "compute", "memstall", "swbkoff", "hwbkoff", "barrier")
	for _, wl := range f.Workloads() {
		base := f.baseline(wl)
		for _, r := range f.Rows {
			if r.Workload != wl {
				continue
			}
			norm := 1.0
			if base != nil && base.Stats.ExecTime > 0 {
				norm = float64(base.Stats.ExecTime)
			}
			name := ""
			if r.Protocol == machine.MESI || base == nil {
				name = wl
			}
			fmt.Fprintf(w, "%-14s %-12s %7s |", name, r.label(),
				pct(float64(r.Stats.ExecTime)/norm))
			for c := stats.TimeComponent(0); c < stats.NumTimeComponents; c++ {
				fmt.Fprintf(w, " %8s", pct(r.Stats.Time[c]/norm))
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderTraffic writes the network-traffic table, normalized to MESI
// (parts (b)/(d) of the kernel figures; Figure 7b for apps).
func (f *Figure) RenderTraffic(w io.Writer) {
	fmt.Fprintf(w, "%s — network traffic (%% of MESI; flit link-crossings by class)\n", f.heading())
	fmt.Fprintf(w, "%-14s %-12s %7s | %8s %8s %8s %8s %8s\n",
		"workload", "prot", "total", "LD", "ST", "WB", "Inv", "SYNCH")
	for _, wl := range f.Workloads() {
		base := f.baseline(wl)
		for _, r := range f.Rows {
			if r.Workload != wl {
				continue
			}
			norm := 1.0
			if base != nil && base.Stats.TotalTraffic > 0 {
				norm = float64(base.Stats.TotalTraffic)
			}
			name := ""
			if r.Protocol == machine.MESI || base == nil {
				name = wl
			}
			fmt.Fprintf(w, "%-14s %-12s %7s |", name, r.label(),
				pct(float64(r.Stats.TotalTraffic)/norm))
			for _, cl := range []proto.MsgClass{proto.ClassLD, proto.ClassST, proto.ClassWB, proto.ClassInv, proto.ClassSynch} {
				fmt.Fprintf(w, " %8s", pct(float64(r.Stats.Traffic[cl])/norm))
			}
			fmt.Fprintln(w)
		}
	}
}

// Render writes both tables.
func (f *Figure) Render(w io.Writer) {
	f.RenderTime(w)
	fmt.Fprintln(w)
	f.RenderTraffic(w)
}

func (f *Figure) heading() string {
	return fmt.Sprintf("%s: %s (%d cores)", f.ID, f.Title, f.Cores)
}

// CSV writes machine-readable rows (absolute numbers) for archival.
func (f *Figure) CSV(w io.Writer) {
	fmt.Fprintf(w, "figure,workload,protocol,cores,exec_cycles,total_traffic")
	for c := stats.TimeComponent(0); c < stats.NumTimeComponents; c++ {
		fmt.Fprintf(w, ",time_%s", strings.ReplaceAll(c.String(), " ", "_"))
	}
	for cl := proto.MsgClass(0); cl < proto.NumMsgClasses; cl++ {
		fmt.Fprintf(w, ",traffic_%s", cl)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%s,%q,%s,%d,%d,%d", f.ID, r.Workload, r.label(), f.Cores,
			r.Stats.ExecTime, r.Stats.TotalTraffic)
		for c := stats.TimeComponent(0); c < stats.NumTimeComponents; c++ {
			fmt.Fprintf(w, ",%.0f", r.Stats.Time[c])
		}
		for cl := proto.MsgClass(0); cl < proto.NumMsgClasses; cl++ {
			fmt.Fprintf(w, ",%d", r.Stats.Traffic[cl])
		}
		fmt.Fprintln(w)
	}
}

// GeoMeanVsMESI returns the geometric-mean ratios (exec, traffic) of prot
// vs MESI across the figure's workloads — the paper's "X% lower on
// average" summary statistics.
func (f *Figure) GeoMeanVsMESI(prot machine.Protocol) (execRatio, trafficRatio float64) {
	var logE, logT float64
	n := 0
	for _, wl := range f.Workloads() {
		base := f.baseline(wl)
		if base == nil {
			continue
		}
		for _, r := range f.Rows {
			if r.Workload == wl && r.Protocol == prot {
				logE += math.Log(float64(r.Stats.ExecTime) / float64(base.Stats.ExecTime))
				logT += math.Log(float64(r.Stats.TotalTraffic) / float64(base.Stats.TotalTraffic))
				n++
			}
		}
	}
	if n == 0 {
		return 1, 1
	}
	return math.Exp(logE / float64(n)), math.Exp(logT / float64(n))
}
