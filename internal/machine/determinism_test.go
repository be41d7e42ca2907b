package machine_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
	"denovosync/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// detJobs is the replay matrix: three kernels with different
// synchronization shapes (TATAS lock, non-blocking CAS loop, barrier) on
// every protocol, at a reduced iteration count.
func detJobs() []struct {
	kernel string
	prot   machine.Protocol
} {
	var jobs []struct {
		kernel string
		prot   machine.Protocol
	}
	for _, k := range []string{"tatas-counter", "nb-m-s-queue", "bar-tree"} {
		for _, p := range []machine.Protocol{machine.MESI, machine.DeNovoSync0, machine.DeNovoSync} {
			jobs = append(jobs, struct {
				kernel string
				prot   machine.Protocol
			}{k, p})
		}
	}
	return jobs
}

func runDetJob(t *testing.T, kernel string, prot machine.Protocol, seed uint64) *stats.RunStats {
	t.Helper()
	k, ok := kernels.ByID(kernel)
	if !ok {
		t.Fatalf("unknown kernel %s", kernel)
	}
	p := machine.Params16()
	p.Seed = seed
	m := machine.New(p, prot, alloc.New())
	rs, err := kernels.Run(k, m, kernels.Config{Iters: 10, EqChecks: -1})
	if err != nil {
		t.Fatalf("%s/%v: %v", kernel, prot, err)
	}
	return rs
}

// fingerprint renders a run's simulated quantities canonically (see
// stats.Fingerprint).
func fingerprint(rs *stats.RunStats) string { return stats.Fingerprint(rs) }

// TestDeterminismReplay: the same Params.Seed must yield bitwise-identical
// statistics on a fresh machine.
func TestDeterminismReplay(t *testing.T) {
	for _, j := range detJobs() {
		a := fingerprint(runDetJob(t, j.kernel, j.prot, 7))
		b := fingerprint(runDetJob(t, j.kernel, j.prot, 7))
		if a != b {
			t.Fatalf("%s/%v: same seed diverged:\n%s\n%s", j.kernel, j.prot, a, b)
		}
	}
}

// TestDeterminismSeedMatters: a different seed changes the workload's
// random dummy computation and therefore the makespan.
func TestDeterminismSeedMatters(t *testing.T) {
	a := runDetJob(t, "tatas-counter", machine.DeNovoSync, 7)
	b := runDetJob(t, "tatas-counter", machine.DeNovoSync, 8)
	if a.ExecTime == b.ExecTime && fingerprint(a) == fingerprint(b) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestDeterminismParallelHarness: running the matrix GOMAXPROCS-parallel
// (independent machines on concurrent goroutines, as the harness does)
// must match the serial fingerprints exactly. Under -race this also
// checks machines share no mutable state.
func TestDeterminismParallelHarness(t *testing.T) {
	jobs := detJobs()
	serial := make([]string, len(jobs))
	for i, j := range jobs {
		serial[i] = fingerprint(runDetJob(t, j.kernel, j.prot, 7))
	}
	parallel := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel[i] = fingerprint(runDetJob(t, j.kernel, j.prot, 7))
		}()
	}
	wg.Wait()
	for i := range jobs {
		if serial[i] != parallel[i] {
			t.Fatalf("%s/%v: parallel run diverged from serial:\n%s\n%s",
				jobs[i].kernel, jobs[i].prot, serial[i], parallel[i])
		}
	}
}

// TestDeterminismGolden pins the fingerprints against checked-in golden
// values, so engine rewrites (event pool, handshake batching) cannot
// silently change simulated results between commits.
func TestDeterminismGolden(t *testing.T) {
	var b strings.Builder
	for _, j := range detJobs() {
		fmt.Fprintf(&b, "%s\n", fingerprint(runDetJob(t, j.kernel, j.prot, 7)))
	}
	path := filepath.Join("testdata", "determinism_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if b.String() != string(want) {
		gl := strings.Split(b.String(), "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("fingerprint %d diverged from golden:\nwant: %s\ngot:  %s", i, wl[i], gl[i])
			}
		}
		t.Fatalf("fingerprint count diverged: want %d, got %d", len(wl), len(gl))
	}
}
