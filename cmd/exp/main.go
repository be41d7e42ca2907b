// Command exp plans, executes, inspects and merges experiment grids
// through the internal/exp orchestration engine: declarative manifests
// (or built-in figure plans) expand into content-addressed runs, a
// worker pool executes them with per-run fault isolation, and a durable
// JSONL journal makes interrupted grids resumable — re-running the same
// command skips every already-journaled run.
//
// Usage:
//
//	exp list                                     # plannable figures
//	exp plan -fig fig3 -cores 16                 # show the expanded grid
//	exp plan -manifest grid.json -json           # machine-readable plan
//	exp run  -fig fig3 -cores 16 -journal f3.jsonl
//	exp run  -manifest grid.json -journal g.jsonl -workers 8 -retries 1
//	exp run  ... -stop-after 5                   # deterministic interrupt
//	exp status -fig fig3 -cores 16 -journal f3.jsonl
//	exp merge  -fig fig3 -cores 16 -journal f3.jsonl -o fig3.csv
//	exp merge  -fig fig3 -journal c.jsonl -journal w1.jsonl  # reconcile N journals
//	exp salvage -journal damaged.jsonl -o repaired.jsonl     # repair a journal
//
// merge accepts -journal repeatedly and reconciles the journals by
// content-addressed run key (identical duplicates dedup, successes
// supersede failures); two different results for one key are a
// determinism bug and fail the merge loudly. -salvage recovers what it
// can from damaged journals instead of refusing them.
//
// During run, the first ^C stops dispatching new runs and exits 130
// once in-flight runs are journaled (resume by re-running); a second ^C
// exits immediately. A -stop-after stop exits 0: it is the expected
// outcome of a bounded session, not an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"

	"denovosync/internal/exp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		fmt.Println(strings.Join(exp.FigureNames(), "\n"))
	case "plan":
		cmdPlan(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "merge":
		cmdMerge(os.Args[2:])
	case "salvage":
		cmdSalvage(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "exp: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: exp <subcommand> [flags]

  list    print the plannable figure/ablation names
  plan    expand a grid and print it (keys, runs)
  run     execute a grid's pending runs (resumable via -journal)
  status  compare a journal against a plan
  merge   reconcile one or more journals and render the figure CSV
  salvage repair a damaged journal (recover good lines, quarantine bad)

Grid selection (plan, run, status, merge):
  -manifest FILE   declarative grid manifest (JSON)
  -fig NAME        built-in figure/ablation plan (see: exp list)
  -cores N         figure machine size: 16 or 64 (default 16)
  -scale N         workload divisor, 1 = paper scale (default 1)

Run 'exp <subcommand> -h' for subcommand flags.
`)
}

// planFlags registers the grid-selection flags shared by every
// plan-consuming subcommand.
type planFlags struct {
	manifest string
	fig      string
	cores    int
	scale    int
}

func (p *planFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&p.manifest, "manifest", "", "grid manifest file (JSON)")
	fs.StringVar(&p.fig, "fig", "", "built-in figure/ablation plan (see: exp list)")
	fs.IntVar(&p.cores, "cores", 16, "figure machine size: 16 or 64")
	fs.IntVar(&p.scale, "scale", 1, "workload divisor (1 = paper scale)")
}

func (p *planFlags) load() (exp.Plan, error) {
	switch {
	case p.manifest != "" && p.fig != "":
		return exp.Plan{}, errors.New("exp: -manifest and -fig are mutually exclusive")
	case p.manifest != "":
		return exp.LoadManifest(p.manifest)
	case p.fig != "":
		return exp.FigurePlan(p.fig, p.cores, exp.Options{Scale: p.scale})
	}
	return exp.Plan{}, errors.New("exp: select a grid with -manifest or -fig")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exp:", err)
	os.Exit(1)
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("exp plan", flag.ExitOnError)
	var pf planFlags
	pf.register(fs)
	asJSON := fs.Bool("json", false, "print the plan as JSON")
	fs.Parse(args)
	plan, err := pf.load()
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s — %s\n%d runs:\n", plan.ID, plan.Title, len(plan.Runs))
	for _, r := range plan.Runs {
		fmt.Printf("  %s  %s\n", r.Key(), r)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("exp run", flag.ExitOnError)
	var pf planFlags
	pf.register(fs)
	var (
		journalPath = fs.String("journal", "", "JSONL result journal (enables resume)")
		workers     = fs.Int("workers", 0, "concurrent runs; 0 = GOMAXPROCS")
		timeout     = fs.Duration("timeout", 0, "per-attempt wall-clock limit; 0 = none")
		retries     = fs.Int("retries", 0, "extra attempts after a failed run")
		retryFailed = fs.Bool("retry-failed", false, "re-execute journaled failures")
		stopAfter   = fs.Int("stop-after", 0, "stop dispatching after N completed runs (0 = no limit)")
		csvPath     = fs.String("csv", "", "write the merged figure CSV here on completion")
		quiet       = fs.Bool("quiet", false, "suppress progress output")
	)
	fs.Parse(args)
	plan, err := pf.load()
	if err != nil {
		fatal(err)
	}

	eng := &exp.Engine{
		Workers: *workers, Timeout: *timeout,
		Retries: *retries, RetryFailed: *retryFailed,
		StopAfter: *stopAfter,
	}
	if !*quiet {
		eng.Progress = os.Stderr
	}
	if *journalPath != "" {
		j, prior, err := exp.OpenJournal(*journalPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "exp:", err)
			}
		}()
		eng.Journal, eng.Prior = j, prior
	}

	// First ^C: stop dispatching, finish and journal in-flight runs, exit
	// 130 (resume by re-running). Second ^C: exit immediately.
	stop := make(chan struct{})
	eng.Stop = stop
	var interrupted atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "exp: interrupt — finishing in-flight runs (^C again to abort)")
		close(stop)
		<-sigc
		os.Exit(130)
	}()

	records, sum, err := eng.Execute(plan)
	signal.Stop(sigc)
	switch {
	case errors.Is(err, exp.ErrStopped):
		fmt.Fprintln(os.Stderr, "exp:", err)
		if interrupted.Load() {
			os.Exit(130)
		}
		return // a -stop-after stop is the expected outcome, not an error
	case err != nil:
		fatal(err)
	}
	if sum.Failed > 0 {
		fmt.Fprintf(os.Stderr, "exp: %d of %d runs failed (see journal; -retry-failed re-executes them)\n",
			sum.Failed, sum.Total)
		os.Exit(1)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w io.Writer) error {
			return exp.MergeCSV(w, plan, records)
		}); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "exp: wrote %s\n", *csvPath)
		}
	}
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("exp status", flag.ExitOnError)
	var pf planFlags
	pf.register(fs)
	journalPath := fs.String("journal", "", "JSONL result journal")
	fs.Parse(args)
	plan, err := pf.load()
	if err != nil {
		fatal(err)
	}
	if *journalPath == "" {
		fatal(errors.New("status needs -journal"))
	}
	recs, err := exp.LoadJournal(*journalPath)
	if err != nil && !os.IsNotExist(err) {
		fatal(err)
	}
	byKey := map[string]*exp.Record{}
	for _, rec := range recs {
		byKey[rec.Key] = rec // later lines win
	}

	var ok, failed, missing int
	seen := map[string]bool{}
	var failures []string
	for _, r := range plan.Runs {
		k := r.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		switch rec := byKey[k]; {
		case rec == nil:
			missing++
		case rec.Status == exp.StatusOK:
			ok++
		default:
			failed++
			failures = append(failures, fmt.Sprintf("  %s  %s: %s", k, r, rec.Error))
		}
	}
	fmt.Printf("%s: %d distinct runs: %d ok, %d failed, %d pending\n",
		plan.ID, len(seen), ok, failed, missing)
	if len(failures) > 0 {
		fmt.Println("failed:")
		for _, f := range failures {
			if i := strings.IndexByte(f, '\n'); i >= 0 {
				f = f[:i] + " ..." // keep panic stacks to one line here
			}
			fmt.Println(f)
		}
	}
	if missing > 0 {
		fmt.Println("resume with: exp run (same grid flags and -journal)")
	}
}

// journalList collects repeated -journal flags.
type journalList []string

func (j *journalList) String() string { return strings.Join(*j, ",") }
func (j *journalList) Set(s string) error {
	*j = append(*j, s)
	return nil
}

func cmdMerge(args []string) {
	fs := flag.NewFlagSet("exp merge", flag.ExitOnError)
	var pf planFlags
	pf.register(fs)
	var journals journalList
	fs.Var(&journals, "journal", "JSONL result journal (repeatable: reconcile several)")
	outPath := fs.String("o", "", "output CSV file (default stdout)")
	salvage := fs.Bool("salvage", false, "recover damaged journals instead of refusing them")
	fs.Parse(args)
	plan, err := pf.load()
	if err != nil {
		fatal(err)
	}
	if len(journals) == 0 {
		fatal(errors.New("merge needs at least one -journal"))
	}
	records, sum, err := exp.ReconcileJournals(journals, *salvage)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "exp: %s\n", sum)
	if err := sum.Err(); err != nil {
		// A determinism conflict never merges silently: report every
		// finding and fail.
		fatal(err)
	}
	if *outPath == "" {
		if err := exp.MergeCSV(os.Stdout, plan, records); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeFile(*outPath, func(w io.Writer) error {
		return exp.MergeCSV(w, plan, records)
	}); err != nil {
		fatal(err)
	}
}

func cmdSalvage(args []string) {
	fs := flag.NewFlagSet("exp salvage", flag.ExitOnError)
	journalPath := fs.String("journal", "", "damaged JSONL result journal")
	outPath := fs.String("o", "", "write the repaired journal here (refuses to overwrite)")
	fs.Parse(args)
	if *journalPath == "" {
		fatal(errors.New("salvage needs -journal"))
	}
	recs, rep, err := exp.SalvageJournal(*journalPath)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	if !rep.Clean() {
		side, err := rep.WriteSidecar()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("quarantine report: %s\n", side)
	}
	if *outPath != "" {
		if err := exp.RewriteJournal(*outPath, recs); err != nil {
			fatal(err)
		}
		fmt.Printf("repaired journal: %s (%d records)\n", *outPath, len(recs))
	}
	if !rep.Clean() {
		os.Exit(1) // damaged input: loud even when the salvage succeeded
	}
}

// writeFile writes via fn and reports Close errors — a full disk
// surfaces as a failure, not a truncated artifact.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
