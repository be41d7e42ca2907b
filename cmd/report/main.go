// Command report digests machine-readable results into the per-figure
// markdown tables embedded in EXPERIMENTS.md (one row per workload with
// the DS0/DS execution-time and network-traffic ratios against MESI),
// and optionally re-evaluates the paper's qualitative claims against the
// archived numbers. It reads either the CSV emitted by `paperbench -csv`
// or an internal/exp JSONL result journal directly.
//
// Usage:
//
//	paperbench -csv results.csv
//	report -csv results.csv > tables.md
//	report -csv results.csv -claims
//	report -journal run.jsonl -o tables.md
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"denovosync"
	"denovosync/internal/exp"
)

type row struct {
	figure, workload, protocol string
	cores                      int
	exec, traffic              float64
	times                      []float64 // per TimeComponent
	classes                    []float64 // per MsgClass
}

func main() {
	path := flag.String("csv", "", "results file from paperbench -csv")
	journalPath := flag.String("journal", "", "JSONL result journal from exp/paperbench/sweep")
	outPath := flag.String("o", "", "output file (default stdout)")
	claims := flag.Bool("claims", false, "evaluate the paper's qualitative claims instead of printing tables; exit 1 unless every claim holds")
	full := flag.Bool("full", false, "print full normalized component tables (like paperbench output)")
	flag.Parse()

	if err := run(*path, *journalPath, *outPath, *claims, *full); err != nil {
		fatal(err)
	}
}

// run loads the rows from the CSV or the journal and writes the report
// the flags select to outPath (stdout when empty).
func run(path, journalPath, outPath string, claims, full bool) (err error) {
	var rows []row
	switch {
	case journalPath != "" && path != "":
		return fmt.Errorf("-csv and -journal are mutually exclusive")
	case journalPath != "":
		rows, err = rowsFromJournal(journalPath)
	default:
		if path == "" {
			path = "results.csv"
		}
		rows, err = rowsFromCSV(path)
	}
	if err != nil {
		return err
	}

	out := io.Writer(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		// Checked close: a write error must fail the run, not truncate
		// the tables silently.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}

	// Group by figure, preserving first-seen order.
	var figures []string
	byFig := map[string][]row{}
	for _, rw := range rows {
		if _, ok := byFig[rw.figure]; !ok {
			figures = append(figures, rw.figure)
		}
		byFig[rw.figure] = append(byFig[rw.figure], rw)
	}

	switch {
	case full:
		printFull(out, figures, byFig)
	case claims:
		err = checkClaims(out, figures, byFig)
	default:
		printTables(out, figures, byFig)
	}
	return err
}

// checkClaims re-evaluates the paper's claims on every figure that has
// any, writes one verdict line per claim and a total, and fails when a
// claim deviates or when no claim was evaluated at all.
func checkClaims(out io.Writer, figures []string, byFig map[string][]row) error {
	pass, dev := 0, 0
	for _, fig := range figures {
		f := rebuild(fig, byFig[fig])
		if len(denovosync.ClaimsFor(f)) == 0 {
			continue
		}
		fmt.Fprintf(out, "-- %s --\n", fig)
		p, d := denovosync.CheckClaims(f, out)
		pass += p
		dev += d
	}
	fmt.Fprintf(out, "\ntotal: %d claims hold, %d deviate\n", pass, dev)
	switch {
	case dev > 0:
		return fmt.Errorf("%d of %d claims deviate", dev, pass+dev)
	case pass == 0:
		return fmt.Errorf("no claim evaluated: no figure in the input carries claims")
	}
	return nil
}

// printTables writes one markdown table per figure: each workload's DS0
// and DS execution time and traffic as ratios to MESI.
func printTables(out io.Writer, figures []string, byFig map[string][]row) {
	for _, fig := range figures {
		rs := byFig[fig]
		// Index MESI baselines.
		base := map[string]row{}
		for _, rw := range rs {
			if rw.protocol == "M" {
				base[rw.workload] = rw
			}
		}
		hasDS0 := false
		for _, rw := range rs {
			if rw.protocol == "DS0" {
				hasDS0 = true
			}
		}
		fmt.Fprintf(out, "### %s\n\n", fig)
		if hasDS0 {
			fmt.Fprintln(out, "| workload | DS0 exec | DS exec | DS0 traffic | DS traffic |")
			fmt.Fprintln(out, "|---|---|---|---|---|")
		} else {
			fmt.Fprintln(out, "| workload | DS exec | DS traffic |")
			fmt.Fprintln(out, "|---|---|---|")
		}
		var order []string
		seen := map[string]bool{}
		vals := map[string]map[string]row{}
		for _, rw := range rs {
			if !seen[rw.workload] {
				seen[rw.workload] = true
				order = append(order, rw.workload)
				vals[rw.workload] = map[string]row{}
			}
			vals[rw.workload][rw.protocol] = rw
		}
		ratio := func(w, prot string, traffic bool) string {
			b, ok := base[w]
			v, ok2 := vals[w][prot]
			if !ok || !ok2 {
				return "—"
			}
			num, den := v.exec, b.exec
			if traffic {
				num, den = v.traffic, b.traffic
			}
			if den == 0 {
				return "—"
			}
			return fmt.Sprintf("%.2fx", num/den)
		}
		for _, w := range order {
			if hasDS0 {
				fmt.Fprintf(out, "| %s | %s | %s | %s | %s |\n", w,
					ratio(w, "DS0", false), ratio(w, "DS", false),
					ratio(w, "DS0", true), ratio(w, "DS", true))
			} else {
				fmt.Fprintf(out, "| %s | %s | %s |\n", w,
					ratio(w, "DS", false), ratio(w, "DS", true))
			}
		}
		fmt.Fprintln(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}

// The columns the report reads from every `paperbench -csv` header:
// four key columns, then the numeric columns in row order — execution
// time and total traffic, the time components, the traffic classes.
var (
	keyCols   = []string{"figure", "workload", "protocol", "cores"}
	timeCols  = []string{"time_non-synch", "time_compute", "time_memory_stall", "time_sw_backoff", "time_hw_backoff", "time_barrier"}
	classCols = []string{"traffic_LD", "traffic_ST", "traffic_WB", "traffic_Inv", "traffic_SYNCH"}
	numCols   = append(append([]string{"exec_cycles", "total_traffic"}, timeCols...), classCols...)
)

// rowsFromCSV parses the `paperbench -csv` format.
func rowsFromCSV(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := parseCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// parseCSV reads header-led sections: a header line (first field
// "figure", repeated per figure) followed by data rows of the same
// width. A header lacking a column the report reads, a data row before
// any header or of another width, and a cell that does not parse as a
// number are errors naming the line.
func parseCSV(in io.Reader) ([]row, error) {
	r := csv.NewReader(in)
	r.FieldsPerRecord = -1 // section widths are checked against their header
	var rows []row
	var col map[string]int
	width := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err // a *csv.ParseError names its line
		}
		line, _ := r.FieldPos(0)
		if rec[0] == "figure" {
			col, width = map[string]int{}, len(rec)
			for i, name := range rec {
				col[name] = i
			}
			for _, name := range append(keyCols, numCols...) {
				if _, ok := col[name]; !ok {
					return nil, fmt.Errorf("line %d: header lacks column %q", line, name)
				}
			}
			continue
		}
		if col == nil {
			return nil, fmt.Errorf("line %d: data row before any header", line)
		}
		if len(rec) != width {
			return nil, fmt.Errorf("line %d: %d fields, its header has %d", line, len(rec), width)
		}
		rw := row{figure: rec[col["figure"]], workload: rec[col["workload"]], protocol: rec[col["protocol"]]}
		if rw.cores, err = strconv.Atoi(rec[col["cores"]]); err != nil {
			return nil, fmt.Errorf("line %d: column cores: %q is not an integer", line, rec[col["cores"]])
		}
		nums := make([]float64, len(numCols))
		for i, name := range numCols {
			if nums[i], err = strconv.ParseFloat(rec[col[name]], 64); err != nil {
				return nil, fmt.Errorf("line %d: column %s: %q is not a number", line, name, rec[col[name]])
			}
		}
		rw.exec, rw.traffic = nums[0], nums[1]
		rw.times, rw.classes = nums[2:2+len(timeCols)], nums[2+len(timeCols):]
		rows = append(rows, rw)
	}
}

// protoRank orders the paper's protocol columns (M, DS0, DS, variants).
func protoRank(p string) int {
	switch p {
	case "M":
		return 0
	case "DS0":
		return 1
	case "DS":
		return 2
	}
	return 3 // labeled ablation variants after the plain protocols
}

// rowsFromJournal builds report rows straight from an exp result journal.
// Journal line order is execution order (nondeterministic under the
// worker pool), so rows are sorted by (figure, workload, protocol rank,
// label) for a deterministic report.
func rowsFromJournal(path string) ([]row, error) {
	recs, err := exp.LoadJournal(path)
	if err != nil {
		return nil, err
	}
	latest := map[string]*exp.Record{}
	var keys []string
	for _, rec := range recs {
		if _, ok := latest[rec.Key]; !ok {
			keys = append(keys, rec.Key)
		}
		latest[rec.Key] = rec // later lines win (e.g. a retried failure)
	}
	var rows []row
	for _, k := range keys {
		rec := latest[k]
		if rec.Status != exp.StatusOK || rec.Stats == nil {
			continue
		}
		r := rec.Run
		workload := r.Display
		if workload == "" {
			workload = r.Workload
		}
		protocol := r.Label
		if protocol == "" {
			protocol = r.Protocol
		}
		rw := row{
			figure:   rec.Fig,
			workload: workload,
			protocol: protocol,
			cores:    r.Cores,
			exec:     float64(rec.Stats.ExecTime),
			traffic:  float64(rec.Stats.TotalTraffic),
		}
		rw.times = append(rw.times, rec.Stats.Time[:]...)
		for _, v := range rec.Stats.Traffic {
			rw.classes = append(rw.classes, float64(v))
		}
		rows = append(rows, rw)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.figure != b.figure {
			return a.figure < b.figure
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		ra, rb := protoRank(a.protocol), protoRank(b.protocol)
		if ra != rb {
			return ra < rb
		}
		return a.protocol < b.protocol
	})
	return rows, nil
}

// rebuild reconstructs a harness Figure (exec/traffic only) from CSV rows
// so claims can be re-evaluated offline.
func rebuild(id string, rs []row) *denovosync.Figure {
	f := &denovosync.Figure{ID: id}
	for _, rw := range rs {
		if f.Cores == 0 {
			f.Cores = rw.cores
		}
		var prot denovosync.Protocol
		switch rw.protocol {
		case "M":
			prot = denovosync.MESI
		case "DS0":
			prot = denovosync.DeNovoSync0
		case "DS":
			prot = denovosync.DeNovoSync
		default:
			continue // labeled ablation variants carry no claims
		}
		st := &denovosync.RunStats{
			Workload:     rw.workload,
			Cores:        rw.cores,
			ExecTime:     denovosync.Cycle(rw.exec),
			TotalTraffic: uint64(rw.traffic),
		}
		f.Rows = append(f.Rows, denovosync.FigureRow{Workload: rw.workload, Protocol: prot, Stats: st})
	}
	return f
}

// printFull reproduces paperbench's normalized component tables from the
// archived CSV (used to rebuild experiments_raw.txt if the live output is
// lost or garbled).
func printFull(out io.Writer, figures []string, byFig map[string][]row) {
	pct := func(v, norm float64) string {
		if norm == 0 {
			return "     —"
		}
		return fmt.Sprintf("%6.1f", v/norm*100)
	}
	for _, fig := range figures {
		rs := byFig[fig]
		base := map[string]row{}
		var order []string
		for _, rw := range rs {
			if rw.protocol == "M" {
				if _, ok := base[rw.workload]; !ok {
					order = append(order, rw.workload)
				}
				base[rw.workload] = rw
			}
		}
		fmt.Fprintf(out, "%s — execution time (%% of MESI)\n", fig)
		fmt.Fprintf(out, "%-26s %-5s %7s | %8s %8s %8s %8s %8s %8s\n", "workload", "prot", "total",
			"nonsynch", "compute", "memstall", "swbkoff", "hwbkoff", "barrier")
		for _, w := range order {
			for _, rw := range rs {
				if rw.workload != w {
					continue
				}
				b := base[w]
				fmt.Fprintf(out, "%-26s %-5s %7s |", w, rw.protocol, pct(rw.exec, b.exec))
				for _, v := range rw.times {
					fmt.Fprintf(out, " %8s", pct(v, b.exec))
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintf(out, "\n%s — network traffic (%% of MESI)\n", fig)
		fmt.Fprintf(out, "%-26s %-5s %7s | %8s %8s %8s %8s %8s\n", "workload", "prot", "total",
			"LD", "ST", "WB", "Inv", "SYNCH")
		for _, w := range order {
			for _, rw := range rs {
				if rw.workload != w {
					continue
				}
				b := base[w]
				fmt.Fprintf(out, "%-26s %-5s %7s |", w, rw.protocol, pct(rw.traffic, b.traffic))
				for _, v := range rw.classes {
					fmt.Fprintf(out, " %8s", pct(v, b.traffic))
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintln(out)
	}
}
