package harness

import (
	"fmt"
	"sort"

	"denovosync/internal/machine"
)

// NamedConfig is a first-class machine configuration: a stable name for
// one of the paper's Table 1 machines, so CLIs, CI jobs and benchmarks
// can select a machine by slug instead of re-deriving it from a core
// count at every call site.
type NamedConfig struct {
	Name  string // stable slug, e.g. "mesh8x8-64c"
	Cores int
	MeshW int
	MeshH int
	Desc  string
}

// Params returns the configuration's machine.Params with the harness
// defaults (the watchdog budget) applied — the same values ParamsFor
// produces for the configuration's core count.
func (c NamedConfig) Params() machine.Params {
	return ParamsFor(c.Cores)
}

// The registry. Both entries are the paper's Table 1 machines; the
// 64-core 8x8 mesh is the configuration every application figure
// (Figure 7) and the large-machine kernel columns run on.
var namedConfigs = map[string]NamedConfig{
	"mesh4x4-16c": {
		Name: "mesh4x4-16c", Cores: 16, MeshW: 4, MeshH: 4,
		Desc: "16 cores on a 4x4 mesh (Table 1, small machine)",
	},
	"mesh8x8-64c": {
		Name: "mesh8x8-64c", Cores: 64, MeshW: 8, MeshH: 8,
		Desc: "64 cores on an 8x8 mesh (Table 1, large machine)",
	},
}

// Configs lists every named configuration, ordered by core count.
func Configs() []NamedConfig {
	out := make([]NamedConfig, 0, len(namedConfigs))
	for _, c := range namedConfigs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cores < out[j].Cores })
	return out
}

// ConfigByName resolves a configuration slug.
func ConfigByName(name string) (NamedConfig, error) {
	c, ok := namedConfigs[name]
	if !ok {
		names := make([]string, 0, len(namedConfigs))
		for n := range namedConfigs {
			names = append(names, n)
		}
		sort.Strings(names)
		return NamedConfig{}, fmt.Errorf("harness: unknown config %q (want one of %v)", name, names)
	}
	return c, nil
}
