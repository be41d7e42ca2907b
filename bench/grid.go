package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"denovosync"
	"denovosync/internal/proto"
	"denovosync/internal/stats"
)

// A workload is a fixed grid of machine runs. A measurement repeats the
// grid round-robin, so every cell is timed several times.
type workload struct {
	name  string
	cells []cell
}

// A cell is one machine run of a grid: one workload body on one protocol
// at one machine size.
type cell struct {
	id    string // "<body>/<protocol>/<cores>c", the key of its digest
	cores int
	prot  denovosync.Protocol
	// build does the workload's own construction in space before the
	// machine exists, and returns the call that drives the machine.
	build func(space *denovosync.Space) drive
}

// drive runs a workload on a built machine.
type drive func(m *denovosync.Machine) (*denovosync.RunStats, error)

// counts are the exact quantities of one run. For a given seed they
// repeat on every run of the cell.
type counts struct {
	events, threadOps, messages, flitHops, l1Accesses, l1Misses, dramAccesses uint64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.threadOps += o.threadOps
	c.messages += o.messages
	c.flitHops += o.flitHops
	c.l1Accesses += o.l1Accesses
	c.l1Misses += o.l1Misses
	c.dramAccesses += o.dramAccesses
}

// sample is one timed execution of a cell: when each of its three spans
// began, how long it took, and how long the host-speed probe took just
// before it.
type sample struct {
	cell, pass               int
	setupAt, runAt, checkAt  time.Time
	setup, run, check, probe time.Duration
	counts                   counts
	mallocs, allocBytes, gcs uint64
	digest                   string
}

func (s sample) wall() time.Duration { return s.setup + s.run + s.check }

// scaled converts a time of this sample to the seconds it would have
// taken on the reference host (see probe.go).
func (s sample) scaled(d time.Duration) float64 {
	return d.Seconds() * probeRef.Seconds() / s.probe.Seconds()
}

func newCell(body string, cores int, prot denovosync.Protocol, build func(*denovosync.Space) drive) cell {
	return cell{id: fmt.Sprintf("%s/%s/%dc", body, prot.Short(), cores), cores: cores, prot: prot, build: build}
}

// kernelCell runs kernel k for iters iterations per core; 0 is the
// kernel's paper-scale default.
func kernelCell(k denovosync.Kernel, cores, iters int, prot denovosync.Protocol) cell {
	return newCell(k.ID, cores, prot, func(*denovosync.Space) drive {
		return func(m *denovosync.Machine) (*denovosync.RunStats, error) {
			return denovosync.RunKernel(k, m, denovosync.KernelConfig{Cores: cores, Iters: iters, EqChecks: -1})
		}
	})
}

func appCell(a denovosync.App, prot denovosync.Protocol) cell {
	return newCell(a.ID, a.DefaultCores, prot, func(*denovosync.Space) drive {
		return func(m *denovosync.Machine) (*denovosync.RunStats, error) { return denovosync.RunApp(a, m, 1) }
	})
}

// Table-1 private sweep: every core stores and loads its own line-aligned
// region, so no line is ever shared. 100 rounds keep a run near 1 s, so
// that a measurement times each of the two cells many times.
const (
	privWords  = 256
	privRounds = 100
	privStride = 4
	privWork   = 20
)

func table1Cell(prot denovosync.Protocol) cell {
	const cores = 64
	return newCell("table1-private", cores, prot, func(space *denovosync.Space) drive {
		region := space.Region("table1.private")
		bases := make([]denovosync.Addr, cores)
		for i := range bases {
			bases[i] = space.AllocAligned(privWords, region)
		}
		return func(m *denovosync.Machine) (*denovosync.RunStats, error) {
			// Each thread writes only its own slot; Run returns after
			// every thread has finished.
			bad := make([]int, cores)
			rs, err := m.Run("table1-private", func(t *denovosync.Thread) {
				base := bases[t.ID]
				for r := 0; r < privRounds; r++ {
					for w := 0; w < privWords; w += privStride {
						t.Store(wordAddr(base, w), privValue(r, w))
						if t.Load(wordAddr(base, w+1)) != 0 {
							bad[t.ID]++
						}
						t.Compute(privWork)
					}
				}
			})
			if err != nil {
				return nil, err
			}
			for id, base := range bases {
				if bad[id] != 0 {
					return nil, fmt.Errorf("table1-private: core %d loaded %d nonzero never-written words", id, bad[id])
				}
				for w := 0; w < privWords; w += privStride {
					if got, want := m.Store.Read(wordAddr(base, w)), privValue(privRounds-1, w); got != want {
						return nil, fmt.Errorf("table1-private: core %d word %d = %d, want %d", id, w, got, want)
					}
				}
			}
			return rs, nil
		}
	})
}

func wordAddr(base denovosync.Addr, w int) denovosync.Addr {
	return base + denovosync.Addr(w*proto.WordBytes)
}

func privValue(round, w int) uint64 { return uint64(round*privWords+w) + 1 }

// workloads returns the benchmark's grids in their fixed run order.
func workloads() []workload {
	all := []denovosync.Protocol{denovosync.MESI, denovosync.DeNovoSync0, denovosync.DeNovoSync}

	// nb-herlihy-heap is left out of the 64-core grid: it overflows its
	// allocation lane on MESI at paper scale (see README.md). The kernels
	// run a quarter of their paper-scale iterations, so that a pass takes
	// about 3.5 s instead of 16 s: a run then times each cell several
	// times, and its median is steady on a noisy host. Contention and
	// machine size, and so the per-event work, are those of the paper.
	var sync64 []cell
	for _, id := range []string{"tatas-single-q", "nb-m-s-queue", "nb-treiber-stack", "bar-central", "array-counter"} {
		k, ok := denovosync.KernelByID(id)
		if !ok {
			panic("bench: unknown kernel " + id)
		}
		for _, p := range all {
			sync64 = append(sync64, kernelCell(k, 64, k.DefaultIters/4, p))
		}
	}

	var sync16 []cell
	for _, k := range denovosync.Kernels() {
		for _, p := range all {
			sync16 = append(sync16, kernelCell(k, 16, 0, p))
		}
	}

	var apps []cell
	for _, a := range denovosync.Apps() {
		for _, p := range []denovosync.Protocol{denovosync.MESI, denovosync.DeNovoSync} {
			apps = append(apps, appCell(a, p))
		}
	}

	return []workload{
		{"sync-64c", sync64},
		{"sync-16c", sync16},
		{"apps", apps},
		{"table1-private", []cell{table1Cell(denovosync.MESI), table1Cell(denovosync.DeNovoSync)}},
	}
}

// params builds a machine configuration the way the figure runs do.
func (c cell) params(seed uint64) denovosync.Params {
	p := denovosync.Params16()
	if c.cores == 64 {
		p = denovosync.Params64()
	}
	p.WatchdogCycles = 100_000_000
	p.Seed = seed
	return p
}

// exec runs the cell once on a fresh machine and times its three spans:
// setup (address space, workload construction, machine), run (the Run*
// call) and check (counts and digest). The host-speed probe, the forced
// collections around it and the memory-statistics reads are outside
// every span. The first collection keeps the previous run's garbage from
// slowing the probe, the second keeps the probe's garbage from slowing
// the setup.
func (c cell) exec(seed uint64) (s sample, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var before, after runtime.MemStats
	runtime.GC()
	s.probe = hostProbe()
	runtime.GC()

	s.setupAt = time.Now()
	space := denovosync.NewSpace()
	run := c.build(space)
	m := denovosync.NewMachine(c.params(seed), c.prot, space)
	s.setup = time.Since(s.setupAt)

	runtime.ReadMemStats(&before)
	s.runAt = time.Now()
	rs, err := run(m)
	s.run = time.Since(s.runAt)
	runtime.ReadMemStats(&after)
	if err != nil {
		return s, err
	}

	s.checkAt = time.Now()
	s.counts = counts{
		events:       rs.Events,
		flitHops:     rs.TotalTraffic,
		l1Accesses:   rs.L1Hits + rs.L1Misses,
		l1Misses:     rs.L1Misses,
		dramAccesses: m.DRAM.Accesses(),
	}
	for _, core := range m.Cores {
		s.counts.threadOps += core.Retired()
	}
	for _, n := range m.Net.Messages() {
		s.counts.messages += n
	}
	sum := sha256.Sum256([]byte(stats.Fingerprint(rs)))
	s.digest = hex.EncodeToString(sum[:])
	s.check = time.Since(s.checkAt)

	s.mallocs = after.Mallocs - before.Mallocs
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.gcs = uint64(after.NumGC - before.NumGC)
	return s, nil
}
