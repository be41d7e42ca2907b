// Package pdes_test holds the differential battery that certified the
// parallel engine against the serial one: every partitioned run had to
// reproduce the serial run's determinism fingerprint bit-for-bit. The
// parallel engine has been removed, and the simulator now runs on one
// engine. The battery stays, under its old path and names, as the
// serial half of that oracle: every kernel x protocol cell must still
// produce the fingerprint that both engines agreed on when the parallel
// one was deleted (testdata/battery_golden.txt).
package pdes_test

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
	"denovosync/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/battery_golden.txt from the simulator")

// jobSpec is one cell of the differential matrix.
type jobSpec struct {
	kernel string
	prot   machine.Protocol
	sigs   bool // DeNovoSync with DeNovoND-style write signatures
}

// configName labels the protocol variant in subtest names.
func (j jobSpec) configName() string {
	if j.sigs {
		return "DSsig"
	}
	switch j.prot {
	case machine.MESI:
		return "M"
	case machine.DeNovoSync0:
		return "DS0"
	default:
		return "DS"
	}
}

func (j jobSpec) name() string { return j.kernel + "/" + j.configName() }

// runJob executes one kernel on a fresh 16-core machine.
func runJob(t *testing.T, j jobSpec) *stats.RunStats {
	t.Helper()
	p := machine.Params16()
	p.Seed = 7
	p.Signatures = j.sigs
	k, ok := kernels.ByID(j.kernel)
	if !ok {
		t.Fatalf("unknown kernel %s", j.kernel)
	}
	m := machine.New(p, j.prot, alloc.New())
	rs, err := kernels.Run(k, m, kernels.Config{Iters: 4, EqChecks: -1, UseSignatures: j.sigs})
	if err != nil {
		t.Fatalf("%s: %v", j.name(), err)
	}
	return rs
}

// fullMatrix is all 24 kernels x {M, DS0, DS, DSsig}.
func fullMatrix() []jobSpec {
	var jobs []jobSpec
	for _, k := range kernels.All() {
		jobs = append(jobs,
			jobSpec{k.ID, machine.MESI, false},
			jobSpec{k.ID, machine.DeNovoSync0, false},
			jobSpec{k.ID, machine.DeNovoSync, false},
			jobSpec{k.ID, machine.DeNovoSync, true},
		)
	}
	return jobs
}

// shortMatrix trims to three synchronization shapes for -short runs.
func shortMatrix() []jobSpec {
	var jobs []jobSpec
	for _, k := range []string{"tatas-counter", "nb-m-s-queue", "bar-tree"} {
		jobs = append(jobs,
			jobSpec{k, machine.MESI, false},
			jobSpec{k, machine.DeNovoSync0, false},
			jobSpec{k, machine.DeNovoSync, false},
			jobSpec{k, machine.DeNovoSync, true},
		)
	}
	return jobs
}

func matrix(t *testing.T) []jobSpec {
	if testing.Short() && !*updateGolden {
		return shortMatrix()
	}
	return fullMatrix()
}

var goldenPath = filepath.Join("testdata", "battery_golden.txt")

// readGolden maps each cell name to its pinned fingerprint. Each line of
// the golden file is "<kernel>/<config>\t<fingerprint>".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		name, fp, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("%s:%d: want \"<kernel>/<config>\\t<fingerprint>\"", goldenPath, line)
		}
		golden[name] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestDifferentialBattery: every cell of the kernel x protocol matrix must
// reproduce its pinned fingerprint. -update reruns the full matrix one
// cell at a time and rewrites the golden file.
func TestDifferentialBattery(t *testing.T) {
	var golden map[string]string
	if !*updateGolden {
		golden = readGolden(t)
	}
	jobs := matrix(t)
	lines := make([]string, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		t.Run(j.name(), func(t *testing.T) {
			if *updateGolden {
				lines[i] = j.name() + "\t" + stats.Fingerprint(runJob(t, j)) + "\n"
				return
			}
			t.Parallel()
			want, ok := golden[j.name()]
			if !ok {
				t.Fatalf("no pinned fingerprint (run with -update to create)")
			}
			if got := stats.Fingerprint(runJob(t, j)); got != want {
				t.Errorf("run diverged from its pinned fingerprint:\nwant: %s\ngot:  %s", want, got)
			}
		})
	}
	if *updateGolden && !t.Failed() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
