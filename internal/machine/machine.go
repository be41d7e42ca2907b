// Package machine assembles a full simulated system — cores, L1s, the
// shared L2 (MESI directory or DeNovo registry), mesh network, and memory
// controllers — and runs workloads on it.
package machine

import (
	"fmt"
	"io"
	"time"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/denovo"
	"denovosync/internal/mem"
	"denovosync/internal/mesi"
	"denovosync/internal/noc"
	"denovosync/internal/proto"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
	"denovosync/internal/trace"
)

// Protocol selects the coherence protocol under evaluation.
type Protocol int

const (
	MESI Protocol = iota
	DeNovoSync0
	DeNovoSync
)

func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case DeNovoSync0:
		return "DeNovoSync0"
	case DeNovoSync:
		return "DeNovoSync"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Short returns the figure-label abbreviation (M / DS0 / DS).
func (p Protocol) Short() string {
	switch p {
	case MESI:
		return "M"
	case DeNovoSync0:
		return "DS0"
	case DeNovoSync:
		return "DS"
	}
	return "?"
}

// Params captures Table 1 of the paper plus the backoff configuration of
// §5.2.
type Params struct {
	Cores        int
	MeshW, MeshH int

	L1Size, L1Ways int

	// Network: per-hop latency as a rational (cycles).
	PerHopNum, PerHopDen sim.Cycle

	// Latency components fitted to Table 1: L1 access 1, L2 access 27,
	// remote-L1 access 9, DRAM 169 (so local L2 hit = 28, local remote-L1
	// hit = 37, local memory hit = 197; distance adds per-hop cycles up to
	// the table's maxima).
	L1AccessLat, L2AccessLat, RemoteL1Lat, DRAMLat sim.Cycle

	// DeNovoSync hardware backoff (§5.2): 9-bit counter with 1-cycle
	// default increment at 16 cores; 12-bit with 64-cycle at 64 cores.
	BackoffBits      uint
	DefaultIncrement sim.Cycle
	IncEveryN        int

	// Signatures enables the DeNovoND-style hardware write-signature
	// extension on DeNovo machines (dynamic self-invalidation).
	Signatures bool

	// LinkContention switches the mesh from the analytic latency model to
	// the wormhole approximation with per-link serialization.
	LinkContention bool

	// LineGranularity switches DeNovo machines from the paper's
	// word-granularity coherence state to line granularity — the ablation
	// behind §2.2's false-sharing claim.
	LineGranularity bool

	// Seed drives all workload randomness (deterministic).
	Seed uint64

	// WatchdogCycles arms the deadlock/livelock watchdog: if no core
	// retires an operation for this many cycles, the run aborts with a
	// structured diagnostic snapshot (*WatchdogError) instead of spinning
	// to the event limit. 0 disables.
	WatchdogCycles sim.Cycle
}

// Params16 returns the 16-core configuration of Table 1.
func Params16() Params {
	return Params{
		Cores: 16, MeshW: 4, MeshH: 4,
		L1Size: 32 * 1024, L1Ways: 8,
		PerHopNum: 10, PerHopDen: 3,
		L1AccessLat: 1, L2AccessLat: 27, RemoteL1Lat: 9, DRAMLat: 169,
		BackoffBits: 9, DefaultIncrement: 1, IncEveryN: 16,
		Seed: 1,
	}
}

// Params64 returns the 64-core configuration of Table 1.
func Params64() Params {
	return Params{
		Cores: 64, MeshW: 8, MeshH: 8,
		L1Size: 32 * 1024, L1Ways: 8,
		PerHopNum: 4, PerHopDen: 1,
		L1AccessLat: 1, L2AccessLat: 27, RemoteL1Lat: 9, DRAMLat: 169,
		BackoffBits: 12, DefaultIncrement: 64, IncEveryN: 64,
		Seed: 1,
	}
}

// Machine is one assembled system ready to run a workload.
type Machine struct {
	Params   Params
	Protocol Protocol

	Eng   *sim.Engine
	Net   *noc.Network
	Store *mem.Store
	DRAM  *mem.DRAM
	Space *alloc.Space

	L1s   []proto.L1Controller
	Cores []*cpu.Core

	// test hooks
	MESIDir  *mesi.Directory
	Registry *denovo.Registry

	rng         *sim.RNG
	watchdogErr *WatchdogError
}

// finishedCount polls how many cores have retired their thread's final
// operation, reading each core's own flag.
func (m *Machine) finishedCount() int {
	n := 0
	for _, core := range m.Cores {
		if core.Finished() {
			n++
		}
	}
	return n
}

// New assembles a machine. space provides the region map (it may already
// contain workload allocations; threads may also allocate during the run).
func New(p Params, prot Protocol, space *alloc.Space) *Machine {
	if p.Cores != p.MeshW*p.MeshH {
		panic("machine: core count does not match mesh")
	}
	mesh := noc.Mesh{W: p.MeshW, H: p.MeshH}
	eng := sim.NewEngine()
	net := noc.New(eng, mesh, p.PerHopNum, p.PerHopDen)
	if p.LinkContention {
		net.EnableContention(1)
	}
	store := mem.NewStore()
	dram := mem.NewDRAM(eng, net, p.DRAMLat)

	m := &Machine{
		Params: p, Protocol: prot,
		Eng: eng, Net: net, Store: store, DRAM: dram, Space: space,
		rng: sim.NewRNG(p.Seed),
	}

	switch prot {
	case MESI:
		cfg := &mesi.Config{
			Eng: eng, Net: net, Store: store, DRAM: dram,
			L1Size: p.L1Size, L1Ways: p.L1Ways,
			L1AccessLat: p.L1AccessLat, L2AccessLat: p.L2AccessLat, RemoteL1Lat: p.RemoteL1Lat,
		}
		dir := mesi.NewDirectory(cfg, p.Cores)
		m.MESIDir = dir
		for i := 0; i < p.Cores; i++ {
			l1 := mesi.NewL1(cfg, proto.CoreID(i), proto.NodeID(i))
			l1.SetDirectory(dir)
			m.L1s = append(m.L1s, l1)
		}
	case DeNovoSync0, DeNovoSync:
		cfg := &denovo.Config{
			Eng: eng, Net: net, Store: store, DRAM: dram,
			L1Size: p.L1Size, L1Ways: p.L1Ways,
			L1AccessLat: p.L1AccessLat, L2AccessLat: p.L2AccessLat, RemoteL1Lat: p.RemoteL1Lat,
			Backoff:     prot == DeNovoSync,
			BackoffBits: p.BackoffBits, DefaultIncrement: p.DefaultIncrement, IncEveryN: p.IncEveryN,
		}
		if p.Signatures {
			cfg.Signatures = mem.NewSigTable(p.Cores)
		}
		if p.LineGranularity {
			cfg.UnitWords = proto.WordsPerLine
		}
		reg := denovo.NewRegistry(cfg, p.Cores)
		m.Registry = reg
		var l1s []*denovo.L1
		for i := 0; i < p.Cores; i++ {
			l1 := denovo.NewL1(cfg, proto.CoreID(i), proto.NodeID(i), space)
			l1.SetRegistry(reg)
			l1s = append(l1s, l1)
			m.L1s = append(m.L1s, l1)
		}
		reg.SetL1s(l1s)
	default:
		panic("machine: unknown protocol")
	}
	return m
}

// EnableTrace logs every network message to w (one line per message:
// cycle, class, route, flits). class = proto.NumMsgClasses traces all
// classes; limit > 0 caps the number of logged events.
func (m *Machine) EnableTrace(w io.Writer, class proto.MsgClass, limit int) *trace.Tracer {
	tr := trace.New(w, class, limit)
	m.Net.SetTrace(tr.Message)
	return tr
}

// Workload is the per-thread body; it runs once per core.
type Workload func(t *cpu.Thread)

// Run executes the workload with one thread per core, to completion.
// It returns aggregate statistics, or an error if the system deadlocked
// (threads blocked with no events pending) or exceeded the event limit.
func (m *Machine) Run(name string, w Workload) (*stats.RunStats, error) {
	return m.RunThreads(name, func(i int) Workload { return w })
}

// RunThreads runs a possibly heterogeneous workload: body(i) supplies the
// function for thread i.
func (m *Machine) RunThreads(name string, body func(i int) Workload) (*stats.RunStats, error) {
	if m.Cores != nil {
		panic("machine: Run called twice")
	}
	for i := 0; i < m.Params.Cores; i++ {
		core := cpu.NewCore(m.Eng, proto.CoreID(i), m.L1s[i], nil)
		m.Cores = append(m.Cores, core)
		core.Start()
	}
	// Thread RNG forks happen here, host-serially in core order.
	for i, core := range m.Cores {
		th := cpu.NewThread(core, m.Space, m.rng.Fork())
		fn := body(i)
		go func() {
			defer th.Close()
			th.Rendezvous()
			fn(th)
		}()
	}
	const eventLimit = 4_000_000_000
	wallStart := time.Now()
	if m.Params.WatchdogCycles > 0 {
		m.armWatchdog()
	}
	m.Eng.Run(eventLimit)
	wall := time.Since(wallStart)

	if m.watchdogErr != nil {
		return nil, m.watchdogErr
	}
	if finished := m.finishedCount(); finished != m.Params.Cores {
		return nil, fmt.Errorf("machine: deadlock or livelock: %d/%d threads finished after %d events",
			finished, m.Params.Cores, m.Eng.Executed)
	}

	rs := &stats.RunStats{
		Protocol: m.Protocol.String(),
		Workload: name,
		Cores:    m.Params.Cores,
		Traffic:  m.Net.Traffic(),
		Events:   m.Eng.Executed,
	}
	for _, core := range m.Cores {
		rs.PerCore = append(rs.PerCore, core.Time())
		s := core.L1().Stats()
		rs.L1Hits += s.TotalHits()
		rs.L1Misses += s.TotalMisses()
	}
	rs.Aggregate()
	rs.SetWallTime(wall)

	// Every run doubles as a protocol invariant test: validate the
	// stable-state invariants at quiescence.
	if err := m.CheckInvariants(); err != nil {
		return nil, err
	}
	return rs, nil
}

// CheckInvariants validates the protocol's stable-state invariants across
// all caches and the shared L2 (single owner/registrant, directory and
// registry agreement, value coherence). Run calls it automatically after
// every simulation.
func (m *Machine) CheckInvariants() error {
	switch m.Protocol {
	case MESI:
		var l1s []*mesi.L1
		for _, c := range m.L1s {
			l1s = append(l1s, c.(*mesi.L1))
		}
		return m.MESIDir.Validate(l1s)
	default:
		var l1s []*denovo.L1
		for _, c := range m.L1s {
			l1s = append(l1s, c.(*denovo.L1))
		}
		return m.Registry.Validate(l1s)
	}
}
