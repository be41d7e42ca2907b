package machine_test

import (
	"fmt"
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/apps"
	"denovosync/internal/cpu"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
	"denovosync/internal/stats"
)

// batchJob is one run of the batching-equivalence matrix, returning its
// statistics and each core's retirement count.
type batchJob struct {
	name string
	run  func(t *testing.T) (*stats.RunStats, []uint64)
}

func retiredPerCore(m *machine.Machine) []uint64 {
	var r []uint64
	for _, c := range m.Cores {
		r = append(r, c.Retired())
	}
	return r
}

// batchJobs covers every batched operation kind: the determinism matrix
// (compute, phases, sync stores, spins, RMWs), a DeNovoSync lock kernel
// with write signatures (AcquireSignature/ReleaseSignature), and a
// Figure 7 application model on both of its protocols (data stores,
// Fence, SelfInvalidate).
func batchJobs() []batchJob {
	var jobs []batchJob
	for _, j := range detJobs() {
		j := j
		jobs = append(jobs, batchJob{fmt.Sprintf("%s/%v", j.kernel, j.prot), func(t *testing.T) (*stats.RunStats, []uint64) {
			k, _ := kernels.ByID(j.kernel)
			p := machine.Params16()
			p.Seed = 7
			m := machine.New(p, j.prot, alloc.New())
			rs, err := kernels.Run(k, m, kernels.Config{Iters: 10, EqChecks: -1})
			if err != nil {
				t.Fatalf("%s/%v: %v", j.kernel, j.prot, err)
			}
			return rs, retiredPerCore(m)
		}})
	}
	jobs = append(jobs, batchJob{"tatas-heap/DS/signatures", func(t *testing.T) (*stats.RunStats, []uint64) {
		k, _ := kernels.ByID("tatas-heap")
		p := machine.Params16()
		p.Seed = 7
		p.Signatures = true
		m := machine.New(p, machine.DeNovoSync, alloc.New())
		rs, err := kernels.Run(k, m, kernels.Config{Iters: 10, EqChecks: -1, UseSignatures: true})
		if err != nil {
			t.Fatalf("tatas-heap/DS/signatures: %v", err)
		}
		return rs, retiredPerCore(m)
	}})
	for _, prot := range []machine.Protocol{machine.MESI, machine.DeNovoSync} {
		prot := prot
		jobs = append(jobs, batchJob{fmt.Sprintf("water/%v", prot), func(t *testing.T) (*stats.RunStats, []uint64) {
			a, _ := apps.ByID("water")
			m := machine.New(machine.Params16(), prot, alloc.New())
			rs, err := apps.Run(a, m, 4)
			if err != nil {
				t.Fatalf("water/%v: %v", prot, err)
			}
			return rs, retiredPerCore(m)
		}})
	}
	return jobs
}

// TestBatchingMatchesEager proves the core↔engine handshake batching
// invariant: running a thread's value-free operations as batches on the
// engine side, and its spins as one engine-side step, must produce the
// same event sequence — and therefore bit-identical statistics and the
// same per-core retirement counts — as the eager one-handshake-per-call
// reference. Not parallel: it toggles the global cpu.EagerOps reference
// switch.
func TestBatchingMatchesEager(t *testing.T) {
	if cpu.EagerOps {
		t.Skip("CPU_EAGER set: nothing to compare against")
	}
	defer func() { cpu.EagerOps = false }()
	for _, j := range batchJobs() {
		lazyRS, lazyRet := j.run(t)
		cpu.EagerOps = true
		eagerRS, eagerRet := j.run(t)
		cpu.EagerOps = false
		lazy, eager := fingerprint(lazyRS), fingerprint(eagerRS)
		if lazy != eager {
			t.Fatalf("%s: batched run diverged from eager reference:\neager: %s\nlazy:  %s", j.name, eager, lazy)
		}
		if fmt.Sprint(lazyRet) != fmt.Sprint(eagerRet) {
			t.Fatalf("%s: per-core retirement differs:\neager: %v\nlazy:  %v", j.name, eagerRet, lazyRet)
		}
	}
}
