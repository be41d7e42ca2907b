package exp

import (
	"encoding/json"
	"fmt"
	"os"

	"denovosync/internal/apps"
	"denovosync/internal/chaos"
	"denovosync/internal/kernels"
	"denovosync/internal/sim"
)

// Plan is an expanded experiment grid: an ordered list of runs plus the
// identity used for rendering. Run order is the canonical row order of
// every merged artifact (table, CSV), independent of execution order.
type Plan struct {
	ID    string `json:"id"`
	Title string `json:"title,omitempty"`
	Cores int    `json:"cores,omitempty"`
	Runs  []Run  `json:"runs"`
}

// IsChaos reports whether the plan is a chaos grid (manifests cannot mix
// chaos and figure runs, so the first run's kind decides).
func (p Plan) IsChaos() bool {
	return len(p.Runs) > 0 && p.Runs[0].Kind == KindChaos
}

// Duplicate grid points (identical configuration under different labels
// — e.g. the hwparams ablation's "paper" and "inc=1" variants at 16
// cores, where the paper increment IS 1) are legal: the engine executes
// each distinct key once and every row renders from the shared record.

// Shard returns slice k of n of the plan, for running one grid on
// several hosts: the runs whose key is the i-th distinct key in plan
// order with i mod n == k. Plan order is kept, a duplicate grid point
// goes with its key, and the ID does not change, so the n shards'
// journals together hold exactly the records one unsharded run writes,
// and exp merge renders them into the same CSV.
func (p Plan) Shard(k, n int) (Plan, error) {
	if n < 1 || k < 0 || k >= n {
		return Plan{}, fmt.Errorf("exp: shard %d/%d: want 0 <= k < n", k, n)
	}
	index := make(map[string]int, len(p.Runs))
	shard := p
	shard.Runs = nil
	for _, r := range p.Runs {
		key := r.Key()
		i, ok := index[key]
		if !ok {
			i = len(index)
			index[key] = i
		}
		if i%n == k {
			shard.Runs = append(shard.Runs, r)
		}
	}
	return shard, nil
}

// Manifest is the declarative, user-authored form of a grid: axes that
// expand into the cross-product of runs. Empty axes take paper defaults.
type Manifest struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`

	// Workload axes. At least one of Kernels/Apps must be non-empty.
	Kernels []string `json:"kernels,omitempty"`
	Apps    []string `json:"apps,omitempty"`

	// Protocols defaults to the paper's comparison set [M, DS0, DS].
	Protocols []string `json:"protocols,omitempty"`

	// Cores defaults to [16]. Apps ignore it (each app pins its own
	// paper core count) unless ForceCores is set.
	Cores      []int `json:"cores,omitempty"`
	ForceCores bool  `json:"force_cores,omitempty"`

	// Iters defaults to [0] (per-kernel paper default).
	Iters []int `json:"iters,omitempty"`

	// Gaps is the non-synch dummy-computation axis in cycles; each gap g
	// expands to the sweep window [g, g+g/4+1). 0 = the paper default
	// window for the core count. Defaults to [0].
	Gaps []int64 `json:"gaps,omitempty"`

	// BackoffBits/Increments sweep the DeNovoSync hardware-backoff
	// parameters; 0 = the Table 1 value. Both default to [0].
	BackoffBits []uint  `json:"backoff_bits,omitempty"`
	Increments  []int64 `json:"increments,omitempty"`

	// EqChecks: nil keeps the as-adapted default (-1 → 2 checks);
	// 0 is the §7.1.3 reduced-equality-check ablation.
	EqChecks *int `json:"eq_checks,omitempty"`

	// Scale divides app workloads (1 = paper scale).
	Scale int `json:"scale,omitempty"`

	// Chaos switches the manifest to a chaos grid: every kernel ×
	// protocol-config × cores × iters × seed expands to one
	// self-contained chaos run (perturbed + baseline + differential
	// check; see internal/chaos). With Chaos set, Protocols names chaos
	// protocol configurations (default [M, DS0, DS, DSsig]) and Apps
	// must be empty; the ablation axes below do not apply.
	Chaos *ChaosAxis `json:"chaos,omitempty"`

	// Grid-wide ablation switches (applied to every run).
	SWBackoffMin    int64 `json:"sw_backoff_min,omitempty"`
	SWBackoffMax    int64 `json:"sw_backoff_max,omitempty"`
	NoPadding       bool  `json:"no_padding,omitempty"`
	InvalidateAll   bool  `json:"invalidate_all,omitempty"`
	ForceMCS        bool  `json:"force_mcs,omitempty"`
	UseSignatures   bool  `json:"use_signatures,omitempty"`
	Signatures      bool  `json:"signatures,omitempty"`
	LineGranularity bool  `json:"line_granularity,omitempty"`
	LinkContention  bool  `json:"link_contention,omitempty"`
}

// ChaosAxis is the seed/perturbation axis of a chaos manifest.
type ChaosAxis struct {
	// Seeds is the number of jitter seeds per grid point (>= 1).
	Seeds int `json:"seeds"`
	// SeedBase is the first seed (default 1).
	SeedBase uint64 `json:"seed_base,omitempty"`
	// Jitter bounds the per-message delay (cycles; 0 = chaos default).
	Jitter int64 `json:"jitter,omitempty"`
	// Watchdog is the deadlock budget (cycles; 0 = chaos default).
	Watchdog int64 `json:"watchdog,omitempty"`
}

// LoadManifest reads and expands a manifest file.
func LoadManifest(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Plan{}, fmt.Errorf("exp: parsing manifest %s: %w", path, err)
	}
	return m.Expand()
}

func orDefaultInts(axis, def []int) []int {
	if len(axis) == 0 {
		return def
	}
	return axis
}

// Expand validates the axes and produces the cross-product plan.
func (m Manifest) Expand() (Plan, error) {
	if m.Name == "" {
		return Plan{}, fmt.Errorf("exp: manifest needs a name")
	}
	if len(m.Kernels) == 0 && len(m.Apps) == 0 {
		return Plan{}, fmt.Errorf("exp: manifest %q selects no kernels or apps", m.Name)
	}
	if m.Chaos != nil {
		return m.expandChaos()
	}
	protocols := m.Protocols
	if len(protocols) == 0 {
		protocols = []string{"M", "DS0", "DS"}
	}
	for _, p := range protocols {
		if _, err := ParseProtocol(p); err != nil {
			return Plan{}, err
		}
	}
	cores := orDefaultInts(m.Cores, []int{16})
	for _, c := range cores {
		if c != 16 && c != 64 {
			return Plan{}, fmt.Errorf("exp: manifest %q: unsupported core count %d (want 16 or 64)", m.Name, c)
		}
	}
	iters := orDefaultInts(m.Iters, []int{0})
	gaps := m.Gaps
	if len(gaps) == 0 {
		gaps = []int64{0}
	}
	bits := m.BackoffBits
	if len(bits) == 0 {
		bits = []uint{0}
	}
	incs := m.Increments
	if len(incs) == 0 {
		incs = []int64{0}
	}
	eq := -1
	if m.EqChecks != nil {
		eq = *m.EqChecks
	}

	base := Run{
		EqChecks:        eq,
		SWBackoffMin:    sim.Cycle(m.SWBackoffMin),
		SWBackoffMax:    sim.Cycle(m.SWBackoffMax),
		NoPadding:       m.NoPadding,
		InvalidateAll:   m.InvalidateAll,
		ForceMCS:        m.ForceMCS,
		UseSignatures:   m.UseSignatures,
		Signatures:      m.Signatures,
		LineGranularity: m.LineGranularity,
		LinkContention:  m.LinkContention,
	}

	p := Plan{ID: m.Name, Title: m.Title}
	if len(cores) == 1 {
		p.Cores = cores[0]
	}
	for _, c := range cores {
		for _, b := range bits {
			for _, inc := range incs {
				for _, it := range iters {
					for _, gap := range gaps {
						for _, id := range m.Kernels {
							k, ok := kernels.ByID(id)
							if !ok {
								return Plan{}, fmt.Errorf("exp: manifest %q: unknown kernel %q", m.Name, id)
							}
							for _, prot := range protocols {
								r := base
								r.Kind, r.Workload, r.Display = KindKernel, k.ID, k.Name
								r.Protocol, r.Cores, r.Iters = prot, c, it
								r.BackoffBits, r.Increment = b, sim.Cycle(inc)
								if gap > 0 {
									r.GapMin = sim.Cycle(gap)
									r.GapMax = sim.Cycle(gap) + sim.Cycle(gap)/4 + 1
								}
								p.Runs = append(p.Runs, r)
							}
						}
					}
				}
				for _, id := range m.Apps {
					a, ok := apps.ByID(id)
					if !ok {
						return Plan{}, fmt.Errorf("exp: manifest %q: unknown app %q", m.Name, id)
					}
					appCores := a.DefaultCores
					if m.ForceCores {
						appCores = c
					} else if len(cores) > 1 {
						return Plan{}, fmt.Errorf("exp: manifest %q: apps pin their own core count; use force_cores to override", m.Name)
					}
					for _, prot := range protocols {
						r := base
						r.Kind, r.Workload, r.Display = KindApp, a.ID, a.Name
						r.Protocol, r.Cores, r.Scale = prot, appCores, m.Scale
						r.BackoffBits, r.Increment = b, sim.Cycle(inc)
						p.Runs = append(p.Runs, r)
					}
				}
			}
		}
	}
	return p, nil
}

// expandChaos produces the chaos grid: kernels × protocol configs ×
// cores × iters × seeds.
func (m Manifest) expandChaos() (Plan, error) {
	ax := m.Chaos
	if len(m.Apps) > 0 {
		return Plan{}, fmt.Errorf("exp: manifest %q: chaos grids support kernels only", m.Name)
	}
	if ax.Seeds < 1 {
		return Plan{}, fmt.Errorf("exp: manifest %q: chaos.seeds must be >= 1", m.Name)
	}
	configs := m.Protocols
	if len(configs) == 0 {
		for _, c := range chaos.Configs() {
			configs = append(configs, c.Name)
		}
	}
	for _, name := range configs {
		if _, ok := chaos.ConfigByName(name); !ok {
			return Plan{}, fmt.Errorf("exp: manifest %q: unknown chaos protocol config %q (want M, DS0, DS or DSsig)", m.Name, name)
		}
	}
	cores := orDefaultInts(m.Cores, []int{16})
	for _, c := range cores {
		if c != 16 && c != 64 {
			return Plan{}, fmt.Errorf("exp: manifest %q: unsupported core count %d (want 16 or 64)", m.Name, c)
		}
	}
	iters := orDefaultInts(m.Iters, []int{0})
	seedBase := ax.SeedBase
	if seedBase == 0 {
		seedBase = 1
	}

	p := Plan{ID: m.Name, Title: m.Title}
	if len(cores) == 1 {
		p.Cores = cores[0]
	}
	for _, c := range cores {
		for _, it := range iters {
			for _, id := range m.Kernels {
				k, ok := kernels.ByID(id)
				if !ok {
					return Plan{}, fmt.Errorf("exp: manifest %q: unknown kernel %q", m.Name, id)
				}
				for _, cfg := range configs {
					for s := 0; s < ax.Seeds; s++ {
						p.Runs = append(p.Runs, Run{
							Kind: KindChaos, Workload: k.ID, Display: k.Name,
							Protocol: cfg, Cores: c, Iters: it, EqChecks: -1,
							ChaosSeed:     seedBase + uint64(s),
							ChaosJitter:   sim.Cycle(ax.Jitter),
							ChaosWatchdog: sim.Cycle(ax.Watchdog),
						})
					}
				}
			}
		}
	}
	return p, nil
}
