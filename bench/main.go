// Command bench measures the host time the simulator takes to regenerate
// the paper's figures, end to end and layer by layer, and checks every
// run's statistics against checked-in digests.
//
// Usage (from the repository root; see README.md):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//
// Without -workload, every workload runs in its own child process, one
// after another. The last line of a workload's output is a JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// digestTable maps a seed, in decimal, to the sha256 of the statistics
// fingerprint of every cell.
type digestTable map[string]map[string]string

// digestSeeds are the seeds with checked-in digests. Seeds 2 and 3 are
// held out for confirming a claimed gain.
var digestSeeds = []uint64{1, 2, 3}

func main() {
	var digests digestTable
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		fmt.Fprintln(os.Stderr, "bench: testdata/digests.json:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, workloads(), digests))
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer, wls []workload, digests digestTable) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to measure (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "Params.Seed of every machine")
	seconds := fs.Float64("seconds", 10, "measuring time per workload; at least one full pass of its grid runs")
	trace := fs.Int("trace", 0, "1: measure half the time untraced and half under a CPU profile, and report per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where -trace 1 writes each workload's CPU profile and spans")
	update := fs.String("update-digests", "", "regenerate this digests file for seeds 1, 2 and 3 and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want flags only, -seconds >= 0 and -trace 0 or 1")
		return 2
	}
	if *update != "" {
		return updateDigests(*update, wls, stderr)
	}
	if *name == "" {
		return runChildren(args, wls, stdout, stderr)
	}
	for _, w := range wls {
		if w.name == *name {
			return measureWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *traceDir, digests, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
	return 2
}

// runChildren measures every workload in its own process, so that each
// reports its own peak RSS.
func runChildren(args []string, wls []workload, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range wls {
		cmd := exec.Command(exe, append(append([]string{}, args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func measureWorkload(w workload, seed uint64, budget time.Duration, traced bool, traceDir string,
	digests digestTable, stdout, stderr io.Writer) int {
	// A machine has one runnable goroutine at a time, so one P matches a
	// worker of a saturated figure grid and keeps cross-P wakeups out of
	// the numbers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	ref := digests[strconv.FormatUint(seed, 10)]
	check := fmt.Sprintf("digests checked against seed %d", seed)
	if ref == nil {
		check = fmt.Sprintf("digests unchecked: no reference for seed %d", seed)
	}

	var metrics []metric
	var phases []phase
	var first summary
	if !traced {
		p := measure(w, seed, budget, ref, stderr)
		phases = append(phases, p)
		first = summarize(len(w.cells), p.samples)
		metrics = endToEnd(first, peakRSSMB())
	} else {
		u := measure(w, seed, budget/2, ref, stderr)
		t, err := profiled(w, seed, budget/2, ref, traceDir, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		phases = append(phases, u, t)
		shares, profileNS, err := attribute(filepath.Join(traceDir, w.name+".cpu.pprof"))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		first = summarize(len(w.cells), u.samples)
		metrics = perLayer(first, summarize(len(w.cells), t.samples), shares, profileNS)
	}

	res := result{Metrics: make(map[string]value, len(metrics))}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "%s: seed %d, %s; %d runs attempted, %d failed; probe at %.2fx its reference time\n",
		w.name, seed, check, res.Attempted, res.Failed, first.slowdown)
	for _, m := range metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
		fmt.Fprintf(stdout, "  %-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// profiled measures the workload under a CPU profile and writes the
// profile and the phase's spans to dir.
func profiled(w workload, seed uint64, budget time.Duration, ref map[string]string, dir string, stderr io.Writer) (phase, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return phase{}, err
	}
	f, err := os.Create(filepath.Join(dir, w.name+".cpu.pprof"))
	if err != nil {
		return phase{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return phase{}, err
	}
	p := measure(w, seed, budget, ref, stderr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return phase{}, err
	}
	return p, writeSpans(filepath.Join(dir, w.name+".spans.json"), w, p.samples)
}

// span is one timed stretch of a run, in nanoseconds from the start of
// the phase's first run.
type span struct {
	Cell    string `json:"cell"`
	Pass    int    `json:"pass"`
	Span    string `json:"span"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func writeSpans(path string, w workload, samples []sample) error {
	var spans []span
	for _, s := range samples {
		epoch := samples[0].setupAt
		for _, x := range []struct {
			name string
			at   time.Time
			d    time.Duration
		}{{"setup", s.setupAt, s.setup}, {"run", s.runAt, s.run}, {"check", s.checkAt, s.check}} {
			start := x.at.Sub(epoch)
			spans = append(spans, span{w.cells[s.cell].id, s.pass, x.name, int64(start), int64(start + x.d)})
		}
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// updateDigests runs every cell once for each digest seed and writes the
// digests to path.
func updateDigests(path string, wls []workload, stderr io.Writer) int {
	table := make(digestTable)
	for _, seed := range digestSeeds {
		ds := make(map[string]string)
		for _, w := range wls {
			for _, c := range w.cells {
				s, err := c.exec(seed)
				if err != nil {
					fmt.Fprintf(stderr, "bench: seed %d: %s: %v\n", seed, c.id, err)
					return 1
				}
				ds[c.id] = s.digest
			}
		}
		table[strconv.FormatUint(seed, 10)] = ds
	}
	b, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}
