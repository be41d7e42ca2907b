package lpisolate

// Model declares the ownership world the prover checks a source tree
// against: which packages are in scope, which types seed which logical
// process, which locations the architecture slices per node, and which
// calls are the sanctioned mediation mechanisms. The model is data, not
// code, so the fixture tests run the same analysis against miniature
// machines with their own seeds.
type Model struct {
	// Packages lists the module-relative package paths in scope.
	Packages []string

	// Seeds maps qualified type names ("mesi.L1") to their domain.
	// Seeded types never inherit a domain through references; they ARE
	// the ownership roots. A seed may live outside the scope packages
	// (cpu.Core): it then contributes typing — peer detection, closure
	// adoption — without its package being analyzed.
	Seeds map[string]string

	// TileControllers lists the seeded tile types that are per-tile
	// controller instances: a write or mutating call into one of these
	// from a context that does not own it is a cross-tile touch.
	TileControllers map[string]bool

	// Shared lists domains whose state is shared fabric by construction:
	// every mutable location there must be sliced or boundary — a plain
	// mutable field is itself a finding.
	Shared map[string]bool

	// Sliced marks "Type.field" locations as per-node sliced: writes
	// must pass through the field with an index (each node touching only
	// its own slot), and types reachable only through sliced fields
	// inherit the sliced class for their own fields.
	Sliced map[string]bool

	// Wiring lists methods beyond the Set*/New* prefixes whose writes
	// count as construction-time wiring ("noc.Network.EnableContention").
	Wiring map[string]bool

	// MessageFns lists the mediation calls ("noc.Network.Send"): the
	// call is recorded as a message crossing and its final func argument
	// runs at the destination, so tile mutations inside it are mediated.
	MessageFns map[string]bool

	// Sanctioned lists the event-API calls a PDES runtime replaces
	// wholesale ("sim.Engine.Schedule"): they are neither crossings nor
	// findings, and func arguments inherit the caller's context — a
	// method value passed as one is a call made from that context.
	Sanctioned map[string]bool

	// PackageDomains maps a scope package's base name to the domain
	// owning its package-level variables.
	PackageDomains map[string]string
}

// DefaultModel is the ownership world of this repository: one logical
// process per tile (core + L1 + its L2 bank slice of the directory or
// registry), the discrete-event engine, the mesh fabric, and the memory
// devices behind the controllers.
func DefaultModel() *Model {
	return &Model{
		Packages: []string{
			"internal/sim", "internal/cache", "internal/noc", "internal/mem",
			"internal/mesi", "internal/denovo", "internal/machine",
			"internal/pdes",
		},
		Seeds: map[string]string{
			"mesi.L1":         "tile",
			"mesi.Directory":  "tile",
			"denovo.L1":       "tile",
			"denovo.Registry": "tile",
			"cpu.Core":        "tile",
			"sim.Engine":      "engine",
			"sim.RNG":         "engine",
			"machine.Machine": "engine",
			// The PDES runtime itself: the window coordinator and the
			// mailbox exchange are engine-side infrastructure — workers
			// touch engines only inside the barrier-delimited handoff.
			"pdes.Scheduler": "engine",
			"pdes.Exchange":  "engine",
			"noc.Network":    "noc",
			"mem.Store":      "mem",
			"mem.DRAM":       "mem",
			"mem.SigTable":   "mem",
		},
		TileControllers: map[string]bool{
			"mesi.L1": true, "mesi.Directory": true,
			"denovo.L1": true, "denovo.Registry": true,
			"cpu.Core": true,
		},
		Shared: map[string]bool{"noc": true, "mem": true},
		Sliced: map[string]bool{
			// Each node's traffic endpoint: Send writes the source's
			// slot. Deliveries write no endpoint: the engine that
			// dispatches a class-tagged delivery counts it.
			"noc.Network.eps": true,
			// Each memory controller's request counter, incremented by
			// the delivery event running at that controller.
			"mem.DRAM.accesses": true,
		},
		Wiring: map[string]bool{
			// Pre-run configuration latch: arming the contention model
			// happens during machine assembly.
			"noc.Network.EnableContention": true,
		},
		MessageFns: map[string]bool{
			"noc.Network.Send": true,
			// The DRAM round-trips are two chained Sends; the done
			// callback is delivered back at the requesting tile.
			"mem.DRAM.Fetch":     true,
			"mem.DRAM.WriteBack": true,
		},
		Sanctioned: map[string]bool{
			"sim.Engine.Schedule": true,
			"sim.Engine.At":       true,
			"sim.Engine.Stop":     true,
			"sim.Engine.Run":      true,
			"sim.Engine.RunUntil": true,
			// Typed forms of Schedule: the same event, carrying a bound
			// continuation with its argument or a dispatch-count tag.
			"sim.Engine.ScheduleCall":   true,
			"sim.Engine.ScheduleTagged": true,
			// The band-1 arrival entry point and the windowed run: the
			// rest of the event API's PDES-mode counterparts, with the
			// same engine-enforced invariants (monotone time, unique
			// keys). Calling either IS the sanctioned mediation.
			"sim.Engine.ScheduleArrivalAt": true,
			"sim.Engine.RunUntilBudget":    true,
		},
		PackageDomains: map[string]string{
			"sim": "engine", "machine": "engine", "pdes": "engine",
			"noc": "noc", "mem": "mem",
			"mesi": "tile", "denovo": "tile", "cache": "tile",
		},
	}
}
