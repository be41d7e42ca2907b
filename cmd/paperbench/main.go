// Command paperbench regenerates every table and figure of the paper's
// evaluation section (§7) plus the sensitivity studies, printing
// normalized tables in the same shape as the paper's stacked bars.
//
// Grids are planned and executed through internal/exp: runs execute in
// parallel on a worker pool with per-run fault isolation, and with
// -journal an interrupted reproduction resumes without re-executing
// completed grid points (grid points shared between figures — e.g. the
// MESI baselines an ablation reuses — execute once and are reused).
//
// Usage:
//
//	paperbench                     # everything (Figures 3-7, paper scale)
//	paperbench -fig 5              # one figure
//	paperbench -fig 3 -cores 16    # one figure, one machine size
//	paperbench -ablate swbackoff   # §7.1.1 software-backoff study
//	paperbench -ablate padding     # §7.1.1 lock-padding study
//	paperbench -ablate eqchecks    # §7.1.3 equality-check study
//	paperbench -ablate hwparams    # backoff parameter sweep
//	paperbench -scale 10           # 10x smaller workloads (quick look)
//	paperbench -csv out.csv        # also dump machine-readable rows
//	paperbench -journal run.jsonl  # resumable (^C, then re-run)
//	paperbench -list-config        # print Table 1
//	paperbench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                               # profile the run (go tool pprof)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"

	"denovosync"
	"denovosync/internal/exp"
	"denovosync/internal/profiling"
)

func main() {
	var (
		fig         = flag.Int("fig", 0, "figure to reproduce (3-7); 0 = all")
		coresFlag   = flag.Int("cores", 0, "restrict kernel figures to 16 or 64 cores; 0 = both")
		ablate      = flag.String("ablate", "", "ablation: swbackoff | padding | eqchecks | signatures | invall | contention | mcs | granularity | hwparams")
		scale       = flag.Int("scale", 1, "workload divisor (1 = paper scale)")
		csvPath     = flag.String("csv", "", "append machine-readable results to this file")
		journalPath = flag.String("journal", "", "JSONL result journal (enables resume)")
		workers     = flag.Int("workers", 0, "concurrent runs; 0 = GOMAXPROCS")
		timeoutFlag = flag.Duration("timeout", 0, "per-run wall-clock limit; 0 = none")
		retries     = flag.Int("retries", 0, "extra attempts after a failed run")
		retryFailed = flag.Bool("retry-failed", false, "re-execute journaled failures")
		progress    = flag.Bool("progress", false, "print live progress to stderr")
		listConfig  = flag.Bool("list-config", false, "print the Table 1 system parameters")
		bars        = flag.Bool("bars", false, "render ASCII stacked bars instead of tables")
		check       = flag.Bool("check", true, "evaluate the paper's qualitative claims per figure")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file")
	)
	flag.Parse()

	// Reject an unknown figure before anything starts: it would run
	// nothing and exit 0. -ablate ignores -fig.
	if *ablate == "" && (*fig < 3 || *fig > 7) && *fig != 0 {
		fmt.Fprintf(os.Stderr, "paperbench: -fig %d: want 3, 4, 5, 6 or 7 (0 = all)\n", *fig)
		flag.Usage()
		os.Exit(2)
	}

	if *listConfig {
		printTable1()
		return
	}

	stopProfile, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fatalf("%v", err)
		}
	}()

	opt := exp.Options{Scale: *scale}
	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("%v", err)
		}
		csv = f
	}

	eng := &exp.Engine{
		Workers: *workers, Timeout: *timeoutFlag,
		Retries: *retries, RetryFailed: *retryFailed,
	}
	if *progress {
		eng.Progress = os.Stderr
	}
	if *journalPath != "" {
		j, prior, err := exp.OpenJournal(*journalPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
		}()
		eng.Journal, eng.Prior = j, prior
	}

	// First ^C: stop dispatching, journal in-flight runs, exit 130
	// (re-running the same command resumes). Second ^C: abort.
	stop := make(chan struct{})
	eng.Stop = stop
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "paperbench: interrupt — finishing in-flight runs (^C again to abort)")
		close(stop)
		<-sigc
		os.Exit(130)
	}()

	emit := func(name string, cores int) {
		plan, err := exp.FigurePlan(name, cores, opt)
		if err != nil {
			fatalf("%v", err)
		}
		records, _, err := eng.Execute(plan)
		if err != nil {
			if errors.Is(err, exp.ErrStopped) && interrupted.Load() {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				os.Exit(130)
			}
			fatalf("%v", err)
		}
		// Completed grid points feed the next figure's resume set (shared
		// baselines across figures execute only once per journal).
		eng.Prior, eng.RetryFailed = records, false
		f, err := exp.Figure(plan, records)
		if err != nil {
			fatalf("%v", err)
		}
		if *bars {
			f.RenderBars(os.Stdout)
		} else {
			f.Render(os.Stdout)
		}
		if *check {
			if pass, dev := denovosync.CheckClaims(f, os.Stdout); pass+dev > 0 {
				fmt.Printf("claims: %d hold, %d deviate\n", pass, dev)
			}
		}
		ds0e, ds0t := f.GeoMeanVsMESI(denovosync.DeNovoSync0)
		dse, dst := f.GeoMeanVsMESI(denovosync.DeNovoSync)
		fmt.Printf("geomean vs MESI:  DS0 exec %.2fx traffic %.2fx | DS exec %.2fx traffic %.2fx\n\n",
			ds0e, ds0t, dse, dst)
		if csv != nil {
			f.CSV(csv)
		}
	}

	if *ablate != "" {
		cores := *coresFlag
		if cores == 0 {
			cores = 64
		}
		switch *ablate {
		case "swbackoff", "padding", "eqchecks", "signatures", "invall",
			"contention", "mcs", "granularity", "hwparams":
			emit(*ablate, cores)
		default:
			fatalf("unknown ablation %q", *ablate)
		}
		closeCSV(csv)
		return
	}

	sizes := []int{16, 64}
	if *coresFlag != 0 {
		sizes = []int{*coresFlag}
	}
	for _, n := range []int{3, 4, 5, 6} {
		if *fig == 0 || *fig == n {
			for _, c := range sizes {
				emit(fmt.Sprintf("fig%d", n), c)
			}
		}
	}
	if *fig == 7 || (*fig == 0 && *coresFlag == 0) {
		emit("fig7", 0)
	}
	closeCSV(csv)
}

// closeCSV checks the CSV Close so a write error (e.g. a full disk)
// fails the run instead of truncating the archive silently.
func closeCSV(f *os.File) {
	if f == nil {
		return
	}
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
}

func printTable1() {
	for _, n := range []int{16, 64} {
		var p denovosync.Params
		if n == 16 {
			p = denovosync.Params16()
		} else {
			p = denovosync.Params64()
		}
		maxHops := (p.MeshW - 1 + p.MeshH - 1)
		perHop := func(h int) denovosync.Cycle {
			return (denovosync.Cycle(h)*p.PerHopNum + p.PerHopDen - 1) / p.PerHopDen
		}
		l2 := denovosync.Cycle(1) + p.L2AccessLat
		rl1 := l2 + p.RemoteL1Lat
		memLat := l2 + p.DRAMLat
		fmt.Printf("Table 1 — %d cores:\n", n)
		fmt.Printf("  mesh               %dx%d, 16-bit flits, %d/%d cycles per hop\n", p.MeshW, p.MeshH, p.PerHopNum, p.PerHopDen)
		fmt.Printf("  L1 data cache      %d KB, %d-way, %d B lines, hit %d cycle\n", p.L1Size/1024, p.L1Ways, 64, p.L1AccessLat)
		fmt.Printf("  L2 (shared NUCA)   %d banks, hit %d to %d cycles\n", n, l2, l2+perHop(2*maxHops))
		fmt.Printf("  remote L1 hit      %d to %d cycles\n", rl1, rl1+perHop(3*maxHops))
		fmt.Printf("  memory hit         %d to %d cycles\n", memLat, memLat+perHop(4*maxHops))
		fmt.Printf("  hw backoff         %d-bit counter, default increment %d, grow every %d remote reads\n\n",
			p.BackoffBits, p.DefaultIncrement, p.IncEveryN)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "paperbench: "+format+"\n", args...)
	os.Exit(1)
}
