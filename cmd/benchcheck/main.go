// Command benchcheck is the tolerance-gated benchmark regression gate:
// it re-runs every benchmark recorded in BENCH_baseline.json and fails
// when a measured ns/op exceeds the baseline by more than the tolerance.
//
//	go run ./cmd/benchcheck              # gate at the default +100%
//	go run ./cmd/benchcheck -tolerance 0.3 -benchtime 5x
//
// Baseline numbers are machine-dependent order-of-magnitude anchors
// (see the comment field in BENCH_baseline.json): run the gate on the
// machine that produced the baseline, or regenerate the baseline first
// with `make bench-baseline`. Improvements never fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Comment    string             `json:"comment"`
	Date       string             `json:"date"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

// gate compares measured ns/op against the baseline rows and returns
// the per-row report lines plus the number of failed rows. Split from
// main so the tolerance logic is testable without running benchmarks.
func gate(base *baseline, tol float64, measured map[string]float64) (lines []string, failed int) {
	keys := make([]string, 0, len(base.Benchmarks))
	for k := range base.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want := base.Benchmarks[k]
		got, ok := measured[k]
		if !ok {
			lines = append(lines, fmt.Sprintf("MISSING  %-55s baseline %.4g ns/op, not measured", k, want))
			failed++
			continue
		}
		ratio := got / want
		status := "ok"
		if got > want*(1+tol) {
			status = "REGRESSED"
			failed++
		}
		lines = append(lines, fmt.Sprintf("%-10s%-55s %.4g -> %.4g ns/op (%.2fx)", status, k, want, got, ratio))
	}
	return lines, failed
}

// benchLine matches "BenchmarkName-8   123   45.6 ns/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)

func main() {
	var (
		path      = flag.String("baseline", "BENCH_baseline.json", "baseline file")
		tolerance = flag.Float64("tolerance", 1.0, "allowed slowdown fraction over baseline (1.0 = +100%)")
		benchtime = flag.String("benchtime", "", "forwarded to go test -benchtime (empty = go default)")
	)
	flag.Parse()

	raw, err := os.ReadFile(*path)
	if err != nil {
		fatalf("%v", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("parsing %s: %v", *path, err)
	}
	if len(base.Benchmarks) == 0 {
		fatalf("%s records no benchmarks", *path)
	}

	// Group baseline entries by package: "internal/sim.BenchmarkX" runs
	// in ./internal/sim, "denovosync.BenchmarkY" in the module root.
	byPkg := map[string][]string{}
	for key := range base.Benchmarks {
		dot := strings.LastIndex(key, ".")
		if dot < 0 {
			fatalf("malformed baseline key %q (want pkg.BenchmarkName)", key)
		}
		pkg := "./" + key[:dot]
		if key[:dot] == "denovosync" {
			pkg = "."
		}
		byPkg[pkg] = append(byPkg[pkg], key[dot+1:])
	}

	measured := map[string]float64{}
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		names := byPkg[pkg]
		sort.Strings(names)
		pattern := "^(" + strings.Join(names, "|") + ")$"
		args := []string{"test", pkg, "-run", "^$", "-bench", pattern}
		if *benchtime != "" {
			args = append(args, "-benchtime", *benchtime)
		}
		fmt.Printf("benchcheck: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fatalf("go test %s: %v", pkg, err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			qual := strings.TrimPrefix(pkg, "./") + "." + m[1]
			if pkg == "." {
				qual = "denovosync." + m[1]
			}
			measured[qual] = ns
		}
	}

	lines, failed := gate(&base, *tolerance, measured)
	for _, l := range lines {
		fmt.Println(l)
	}
	if failed > 0 {
		fatalf("%d benchmark(s) regressed beyond tolerance (re-anchor deliberately with make bench-baseline)", failed)
	}
	fmt.Printf("benchcheck: %d benchmarks within tolerance (+%.0f%%)\n", len(base.Benchmarks), *tolerance*100)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
