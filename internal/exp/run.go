// Package exp is the experiment-orchestration layer above the simulator:
// declarative grid manifests expanded into content-addressed runs, a
// worker pool that executes them with per-run fault isolation (panic
// recovery, timeout, bounded retry), a durable JSONL result journal that
// makes interrupted grids resumable, and a merge step that renders the
// journal back into the repo's figure and sweep CSV formats.
//
// The layer is deliberately outside the simulator's determinism
// boundary: every individual simulation is cycle-exact deterministic, so
// a grid's merged results are byte-identical whether it ran serially,
// in parallel, or across several interrupted sessions — the journal only
// changes *when* a run executes, never what it produces.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"denovosync/internal/alloc"
	"denovosync/internal/apps"
	"denovosync/internal/chaos"
	"denovosync/internal/kernels"
	"denovosync/internal/locks"
	"denovosync/internal/machine"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// Run kinds.
const (
	KindKernel = "kernel"
	KindApp    = "app"
	// KindChaos is one chaos grid point: a self-contained
	// chaos.RunSpec execution (perturbed run + baseline + differential
	// check) whose verdict lands in the journal. For chaos runs the
	// Protocol field holds the chaos protocol-config abbreviation
	// (M/DS0/DS/DSsig) rather than a plain protocol.
	KindChaos = "chaos"
	// KindScenario is one fuzz-scenario execution: the Scenario field
	// carries the canonical scenario JSON (internal/fuzz) and Workload
	// its content fingerprint. Scenario runs need an Engine.Executor —
	// the exp layer cannot execute them itself without an import cycle.
	KindScenario = "scenario"
)

// Run is one point of an experiment grid: everything needed to rebuild
// the machine and workload configuration from scratch. The zero value of
// each optional field means "the paper default" (with the one exception
// of EqChecks, where -1 is the as-adapted default and 0 is the §7.1.3
// ablation — planners set it explicitly).
//
// Runs are content-addressed: Key is a hash of every semantically
// meaningful field, so a journaled result is reused on resume only if
// the configuration is bit-identical. Display and Label are cosmetic
// (table rendering) and excluded from the key.
type Run struct {
	Kind     string `json:"kind"`     // "kernel" | "app"
	Workload string `json:"workload"` // kernel or app slug
	Protocol string `json:"protocol"` // M | DS0 | DS
	Cores    int    `json:"cores"`

	// Display overrides the workload name in rendered tables; Label
	// overrides the protocol column (ablation variants). Not keyed.
	Display string `json:"display,omitempty"`
	Label   string `json:"label,omitempty"`

	// Kernel configuration (see kernels.Config).
	Iters         int       `json:"iters,omitempty"`
	EqChecks      int       `json:"eq_checks"`
	GapMin        sim.Cycle `json:"gap_min,omitempty"`
	GapMax        sim.Cycle `json:"gap_max,omitempty"`
	SWBackoffMin  sim.Cycle `json:"sw_backoff_min,omitempty"`
	SWBackoffMax  sim.Cycle `json:"sw_backoff_max,omitempty"`
	NoPadding     bool      `json:"no_padding,omitempty"`
	InvalidateAll bool      `json:"invalidate_all,omitempty"`
	ForceMCS      bool      `json:"force_mcs,omitempty"`
	UseSignatures bool      `json:"use_signatures,omitempty"`

	// App configuration: workload divisor (1 = paper scale).
	Scale int `json:"scale,omitempty"`

	// Chaos configuration (Kind == KindChaos). All omitempty: adding
	// them left every pre-existing run key unchanged.
	ChaosSeed     uint64    `json:"chaos_seed,omitempty"`
	ChaosJitter   sim.Cycle `json:"chaos_jitter,omitempty"`
	ChaosWatchdog sim.Cycle `json:"chaos_watchdog,omitempty"`

	// Scenario carries the canonical scenario JSON for KindScenario runs
	// (internal/fuzz emits it; Workload holds its fingerprint). It is
	// keyed: two runs of different scenarios never collide. Adding the
	// field left every pre-existing run key unchanged (omitempty).
	Scenario json.RawMessage `json:"scenario,omitempty"`

	// Machine parameter overrides (zero = the Table 1 value for Cores).
	BackoffBits     uint      `json:"backoff_bits,omitempty"`
	Increment       sim.Cycle `json:"increment,omitempty"`
	Signatures      bool      `json:"signatures,omitempty"`
	LineGranularity bool      `json:"line_granularity,omitempty"`
	LinkContention  bool      `json:"link_contention,omitempty"`
}

// keySchema versions the Key computation: bump it whenever Run's keyed
// fields or their meaning change, so stale journals are re-executed
// rather than silently misread. v2: every figure, sweep and manifest run
// arms the watchdog, whose tick adds one event to Stats.Events.
const keySchema = "exp.v2:"

// watchdogCycles is the deadlock/livelock budget of every machine a
// figure, sweep or manifest run builds (machine.Params.WatchdogCycles):
// a hang aborts with a *machine.WatchdogError and its diagnostic
// snapshot instead of spinning to the event limit. It is orders of
// magnitude beyond any legitimate retirement gap (no paper-scale figure
// or ablation run takes more than 66.1M cycles in all), so it only fires
// on a genuine hang.
const watchdogCycles sim.Cycle = 100_000_000

// Key returns the run's deterministic content hash (16 hex digits).
// Cosmetic fields (Display, Label) do not participate, so relabeling a
// figure does not invalidate journaled results.
func (r Run) Key() string {
	r.Display, r.Label = "", ""
	b, err := json.Marshal(r) // struct field order is fixed → canonical
	if err != nil {
		panic(fmt.Sprintf("exp: marshaling Run: %v", err)) // unreachable: Run has no unmarshalable fields
	}
	sum := sha256.Sum256(append([]byte(keySchema), b...))
	return hex.EncodeToString(sum[:8])
}

// display returns the table workload name.
func (r Run) display() string {
	if r.Display != "" {
		return r.Display
	}
	return r.Workload
}

// String identifies the run for error messages and progress lines.
func (r Run) String() string {
	s := fmt.Sprintf("%s/%s/%dc", r.Workload, r.Protocol, r.Cores)
	if r.Kind == KindChaos {
		s += fmt.Sprintf("/seed=%d", r.ChaosSeed)
	}
	if r.Label != "" {
		s += "/" + r.Label
	}
	return s
}

// ParseProtocol maps a figure abbreviation to a machine protocol.
func ParseProtocol(s string) (machine.Protocol, error) {
	switch s {
	case "M":
		return machine.MESI, nil
	case "DS0":
		return machine.DeNovoSync0, nil
	case "DS":
		return machine.DeNovoSync, nil
	}
	return 0, fmt.Errorf("exp: unknown protocol %q (want M, DS0 or DS)", s)
}

// params builds the machine configuration: the Table 1 preset for the
// run's core count with the watchdog armed, plus any explicit overrides.
func (r Run) params() (machine.Params, error) {
	var p machine.Params
	switch r.Cores {
	case 16:
		p = machine.Params16()
	case 64:
		p = machine.Params64()
	default:
		return p, fmt.Errorf("exp: unsupported core count %d (want 16 or 64)", r.Cores)
	}
	p.WatchdogCycles = watchdogCycles
	if r.BackoffBits != 0 {
		p.BackoffBits = r.BackoffBits
	}
	if r.Increment != 0 {
		p.DefaultIncrement = r.Increment
	}
	p.Signatures = r.Signatures
	p.LineGranularity = r.LineGranularity
	p.LinkContention = r.LinkContention
	return p, nil
}

// kernelConfig maps the run onto kernels.Config.
func (r Run) kernelConfig() kernels.Config {
	return kernels.Config{
		Cores:         r.Cores,
		Iters:         r.Iters,
		EqChecks:      r.EqChecks,
		NonSynchMin:   r.GapMin,
		NonSynchMax:   r.GapMax,
		LockBackoff:   locks.BackoffRange{Min: r.SWBackoffMin, Max: r.SWBackoffMax},
		NoPadding:     r.NoPadding,
		InvalidateAll: r.InvalidateAll,
		ForceMCS:      r.ForceMCS,
		UseSignatures: r.UseSignatures,
	}
}

func (r Run) scale() int {
	if r.Scale < 1 {
		return 1
	}
	return r.Scale
}

// chaosSpec maps a chaos run onto chaos.Spec. The EqChecks conventions
// differ (exp: -1 = default, 0 = disabled; chaos.Spec: 0 = default,
// -1 = disabled), so the value is translated.
func (r Run) chaosSpec() chaos.Spec {
	eq := r.EqChecks
	switch eq {
	case -1:
		eq = 0
	case 0:
		eq = -1
	}
	return chaos.Spec{
		Kernel:         r.Workload,
		Config:         r.Protocol,
		Cores:          r.Cores,
		Iters:          r.Iters,
		EqChecks:       eq,
		Seed:           r.ChaosSeed,
		MaxJitter:      r.ChaosJitter,
		WatchdogCycles: r.ChaosWatchdog,
	}
}

// Execute builds a fresh machine and runs the workload. Each call is
// fully independent (its own address space and memory image), which is
// what makes grid points safe to execute concurrently.
func Execute(r Run) (*stats.RunStats, error) {
	if r.Kind == KindChaos {
		// The verdict travels in the error string ("chaos[verdict]: ...",
		// fully deterministic), so the journal records it per seed and
		// ChaosCSV can render it without a schema change.
		res := chaos.RunSpec(r.chaosSpec())
		if err := res.Err(); err != nil {
			return nil, err
		}
		return res.Stats, nil
	}
	if r.Kind == KindScenario {
		return nil, fmt.Errorf("exp: scenario runs need an Engine.Executor (internal/fuzz provides one)")
	}
	prot, err := ParseProtocol(r.Protocol)
	if err != nil {
		return nil, err
	}
	p, err := r.params()
	if err != nil {
		return nil, err
	}
	switch r.Kind {
	case KindKernel, "":
		k, ok := kernels.ByID(r.Workload)
		if !ok {
			return nil, fmt.Errorf("exp: unknown kernel %q", r.Workload)
		}
		m := machine.New(p, prot, alloc.New())
		return kernels.Run(k, m, r.kernelConfig())
	case KindApp:
		a, ok := apps.ByID(r.Workload)
		if !ok {
			return nil, fmt.Errorf("exp: unknown app %q", r.Workload)
		}
		m := machine.New(p, prot, alloc.New())
		return apps.RunSig(a, m, r.scale(), r.UseSignatures)
	}
	return nil, fmt.Errorf("exp: unknown run kind %q", r.Kind)
}
