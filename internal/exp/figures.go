package exp

import (
	"fmt"
	"io"
	"strings"

	"denovosync/internal/apps"
	"denovosync/internal/chaos"
	"denovosync/internal/harness"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
	"denovosync/internal/sim"
)

// Options tunes a planned reproduction.
type Options struct {
	// Scale shrinks workloads by this divisor; 1 = the paper's sizes.
	Scale int
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

// scaledIters is a kernel run's iteration count at the options' scale:
// 0 keeps each kernel's paper default; larger scales divide the
// canonical 100 iterations.
func (o Options) scaledIters() int {
	s := o.scale()
	if s <= 1 {
		return 0
	}
	it := 100 / s
	if it < 2 {
		it = 2
	}
	return it
}

// FigureNames lists the plannable figure/ablation IDs in display order.
func FigureNames() []string {
	return []string{
		"fig3", "fig4", "fig5", "fig6", "fig7",
		"swbackoff", "padding", "eqchecks", "signatures", "invall",
		"contention", "mcs", "granularity", "hwparams",
	}
}

// FigurePlan expands one of the paper's figures or ablation studies into
// a grid plan: the one definition of each figure's ID, title, row order
// and per-run configuration. Every CLI, the public API (Reproduce) and
// the golden figures (internal/harness/testdata) go through it.
func FigurePlan(name string, cores int, o Options) (Plan, error) {
	switch name {
	case "fig3":
		return kernelGroupPlan(fmt.Sprintf("Figure 3 (%dc)", cores),
			"Test-and-Test-and-Set (TATAS) locks", kernels.LockTATAS, cores, o, nil)
	case "fig4":
		return kernelGroupPlan(fmt.Sprintf("Figure 4 (%dc)", cores),
			"Array locks", kernels.LockArray, cores, o, nil)
	case "fig5":
		return kernelGroupPlan(fmt.Sprintf("Figure 5 (%dc)", cores),
			"Non-blocking algorithms", kernels.NonBlocking, cores, o, nil)
	case "fig6":
		return kernelGroupPlan(fmt.Sprintf("Figure 6 (%dc)", cores),
			"Barrier synchronization (UB = unbalanced)", kernels.Barriers, cores, o, nil)
	case "fig7":
		return fig7Plan(o)
	case "swbackoff":
		return kernelGroupPlan(fmt.Sprintf("Ablation: sw backoff (%dc)", cores),
			"TATAS kernels with software exponential backoff [128,2048)", kernels.LockTATAS, cores, o,
			func(r *Run) { r.SWBackoffMin, r.SWBackoffMax = 128, 2048 })
	case "padding":
		return kernelGroupPlan(fmt.Sprintf("Ablation: no lock padding (%dc)", cores),
			"TATAS kernels without lock padding", kernels.LockTATAS, cores, o,
			func(r *Run) { r.NoPadding = true })
	case "eqchecks":
		return kernelGroupPlan(fmt.Sprintf("Ablation: reduced equality checks (%dc)", cores),
			"Non-blocking kernels, Herlihy equality checks removed", kernels.NonBlocking, cores, o,
			func(r *Run) { r.EqChecks = 0 })
	case "mcs":
		return kernelGroupPlan(fmt.Sprintf("Ablation: MCS locks (%dc)", cores),
			"Lock kernels with MCS list-based queuing locks", kernels.LockTATAS, cores, o,
			func(r *Run) { r.ForceMCS = true })
	case "invall":
		return invalidateAllPlan(cores, o)
	case "signatures":
		return signaturesPlan(cores, o)
	case "contention":
		return contentionPlan(cores, o)
	case "granularity":
		return granularityPlan(cores, o)
	case "hwparams":
		return backoffParamsPlan(cores, o)
	}
	return Plan{}, fmt.Errorf("exp: unknown figure %q (want one of %s)", name, strings.Join(FigureNames(), ", "))
}

func checkCores(cores int) error {
	if cores != 16 && cores != 64 {
		return fmt.Errorf("exp: unsupported core count %d (want 16 or 64)", cores)
	}
	return nil
}

// kernelBase is the paper-default kernel run at a scale.
func kernelBase(o Options) Run {
	return Run{Kind: KindKernel, EqChecks: -1, Iters: o.scaledIters()}
}

var protocols3 = []string{"M", "DS0", "DS"}

func kernelGroupPlan(id, title string, g kernels.Group, cores int, o Options, mutate func(*Run)) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	p := Plan{ID: id, Title: title, Cores: cores}
	for _, k := range kernels.ByGroup(g) {
		for _, prot := range protocols3 {
			r := kernelBase(o)
			r.Workload, r.Display, r.Protocol, r.Cores = k.ID, k.Name, prot, cores
			if mutate != nil {
				mutate(&r)
			}
			p.Runs = append(p.Runs, r)
		}
	}
	return p, nil
}

func fig7Plan(o Options) (Plan, error) {
	p := Plan{ID: "Figure 7", Title: "Applications (ferret/x264 at 16 cores, rest at 64)", Cores: 64}
	for _, a := range apps.All() {
		for _, prot := range []string{"M", "DS"} {
			p.Runs = append(p.Runs, Run{
				Kind: KindApp, Workload: a.ID, Display: a.Name,
				Protocol: prot, Cores: a.DefaultCores, Scale: o.scale(),
			})
		}
	}
	return p, nil
}

func invalidateAllPlan(cores int, o Options) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	p := Plan{
		ID:    fmt.Sprintf("Ablation: invalidate-all fallback (%dc)", cores),
		Title: "Region-based self-invalidation vs the no-information fallback",
		Cores: cores,
	}
	for _, id := range []string{"tatas-single-q", "tatas-heap", "array-stack"} {
		for _, v := range []struct {
			prot  string
			all   bool
			label string
		}{
			{"M", false, ""},
			{"DS", false, "DS/regions"},
			{"DS", true, "DS/inv-all"},
		} {
			r := kernelBase(o)
			r.Workload, r.Display, r.Protocol, r.Cores = id, id, v.prot, cores
			r.Label, r.InvalidateAll = v.label, v.all
			p.Runs = append(p.Runs, r)
		}
	}
	return p, nil
}

func signaturesPlan(cores int, o Options) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	p := Plan{
		ID:    fmt.Sprintf("Ablation: hw signatures (%dc)", cores),
		Title: "Static region self-invalidation vs DeNovoND-style write signatures",
		Cores: cores,
	}
	for _, id := range []string{"tatas-heap", "array-heap"} {
		for _, v := range []struct {
			prot  string
			sigs  bool
			label string
		}{
			{"M", false, ""},
			{"DS", false, "DS/regions"},
			{"DS", true, "DS/sigs"},
		} {
			r := kernelBase(o)
			r.Workload, r.Display, r.Protocol, r.Cores = id, id, v.prot, cores
			r.Label, r.Signatures, r.UseSignatures = v.label, v.sigs, v.sigs
			p.Runs = append(p.Runs, r)
		}
	}
	fa, ok := apps.ByID("fluidanimate")
	if !ok {
		return Plan{}, fmt.Errorf("exp: missing app fluidanimate")
	}
	for _, v := range []struct {
		prot  string
		sigs  bool
		label string
	}{
		{"M", false, ""},
		{"DS", false, "DS/regions"},
		{"DS", true, "DS/sigs"},
	} {
		p.Runs = append(p.Runs, Run{
			Kind: KindApp, Workload: fa.ID, Display: fa.Name,
			Protocol: v.prot, Cores: fa.DefaultCores, Scale: o.scale(),
			Label: v.label, Signatures: v.sigs, UseSignatures: v.sigs,
		})
	}
	return p, nil
}

func contentionPlan(cores int, o Options) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	p := Plan{
		ID:    fmt.Sprintf("Ablation: link contention (%dc)", cores),
		Title: "Analytic mesh latency vs wormhole link-contention model",
		Cores: cores,
	}
	for _, id := range []string{"tatas-counter", "nb-fai-counter"} {
		for _, v := range []struct {
			prot      string
			contended bool
			label     string
		}{
			{"M", false, "M/analytic"},
			{"M", true, "M/contended"},
			{"DS", false, "DS/analytic"},
			{"DS", true, "DS/contended"},
		} {
			r := kernelBase(o)
			r.Workload, r.Display, r.Protocol, r.Cores = id, id, v.prot, cores
			r.Label, r.LinkContention = v.label, v.contended
			p.Runs = append(p.Runs, r)
		}
	}
	return p, nil
}

func granularityPlan(cores int, o Options) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	p := Plan{
		ID:    fmt.Sprintf("Ablation: coherence granularity (%dc)", cores),
		Title: "Word-granularity DeNovo vs line-granularity variant",
		Cores: cores,
	}
	variants := []struct {
		prot  string
		line  bool
		label string
	}{
		{"M", false, ""},
		{"DS", false, "DS/word"},
		{"DS", true, "DS/line"},
	}
	for _, id := range []string{"tatas-counter", "tatas-single-q"} {
		for _, v := range variants {
			r := kernelBase(o)
			r.Workload, r.Display, r.Protocol, r.Cores = id, id+" (unpadded)", v.prot, cores
			r.NoPadding = true // unpadded locks share lines with data
			r.Label, r.LineGranularity = v.label, v.line
			p.Runs = append(p.Runs, r)
		}
	}
	lu, ok := apps.ByID("lu")
	if !ok {
		return Plan{}, fmt.Errorf("exp: missing app lu")
	}
	for _, v := range variants {
		p.Runs = append(p.Runs, Run{
			Kind: KindApp, Workload: lu.ID, Display: lu.Name,
			Protocol: v.prot, Cores: lu.DefaultCores, Scale: o.scale(),
			Label: v.label, LineGranularity: v.line,
		})
	}
	return p, nil
}

func backoffParamsPlan(cores int, o Options) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	p := Plan{
		ID:    fmt.Sprintf("Ablation: hw backoff params (%dc)", cores),
		Title: "DeNovoSync backoff counter width x default increment, M-S queue",
		Cores: cores,
	}
	k, ok := kernels.ByID("nb-m-s-queue")
	if !ok {
		return Plan{}, fmt.Errorf("exp: missing kernel nb-m-s-queue")
	}
	base := machine.Params16()
	if cores == 64 {
		base = machine.Params64()
	}
	for _, prot := range []string{"M", "DS0"} {
		r := kernelBase(o)
		r.Workload, r.Display, r.Protocol, r.Cores = k.ID, k.Name, prot, cores
		p.Runs = append(p.Runs, r)
	}
	for _, v := range []struct {
		name string
		bits uint
		inc  sim.Cycle
	}{
		{"paper", base.BackoffBits, base.DefaultIncrement},
		{"narrow(6b)", 6, base.DefaultIncrement},
		{"wide(14b)", 14, base.DefaultIncrement},
		{"inc=1", base.BackoffBits, 1},
		{"inc=256", base.BackoffBits, 256},
	} {
		r := kernelBase(o)
		r.Workload, r.Display, r.Protocol, r.Cores = k.ID, k.Name, "DS", cores
		r.Label = "DS/" + v.name
		r.BackoffBits, r.Increment = v.bits, v.inc
		p.Runs = append(p.Runs, r)
	}
	return p, nil
}

// Figure assembles the harness figure for a plan from a record set, in
// plan order (deterministic regardless of execution order). It errors if
// any grid point is missing or journaled as failed, listing them all.
func Figure(p Plan, records map[string]*Record) (*harness.Figure, error) {
	f := &harness.Figure{ID: p.ID, Title: p.Title, Cores: p.Cores}
	var bad []string
	for _, r := range p.Runs {
		rec, ok := records[r.Key()]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: missing (not yet executed)", r))
			continue
		case rec.Status != StatusOK:
			bad = append(bad, fmt.Sprintf("%s: %s after %d attempt(s): %s", r, rec.Status, rec.Attempts, rec.Error))
			continue
		}
		prot, err := ParseProtocol(r.Protocol)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, harness.Row{
			Workload: r.display(), Protocol: prot, Label: r.Label, Stats: rec.Stats,
		})
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("exp: %s: %d of %d runs unusable:\n  %s",
			p.ID, len(bad), len(p.Runs), strings.Join(bad, "\n  "))
	}
	return f, nil
}

// Reproduce runs one of the paper's figures or ablation studies (a
// FigureNames entry; cores is 16 or 64 and ignored by fig7) on a
// GOMAXPROCS worker pool without a journal, and assembles its figure.
// A failed run fails the figure.
func Reproduce(name string, cores int, o Options) (*harness.Figure, error) {
	plan, err := FigurePlan(name, cores, o)
	if err != nil {
		return nil, err
	}
	records, _, err := (&Engine{}).Execute(plan)
	if err != nil {
		return nil, err
	}
	return Figure(plan, records)
}

// MergeCSV renders a plan's journaled records in the harness figure CSV
// format (the same bytes paperbench -csv emits for the figure). Chaos
// plans render in the per-seed verdict format instead (ChaosCSV): their
// failed records carry verdicts, not broken figures.
func MergeCSV(w io.Writer, p Plan, records map[string]*Record) error {
	if p.IsChaos() {
		return ChaosCSV(w, p, records)
	}
	f, err := Figure(p, records)
	if err != nil {
		return err
	}
	f.CSV(w)
	return nil
}

// SweepPlan expands the cmd/sweep grid — one kernel across the offered-
// load (gap) axis under every protocol — into a plan. gaps are dummy-
// computation windows in cycles; each expands to [g, g+g/4+1) exactly as
// the serial sweep driver did.
func SweepPlan(kernelID string, cores, iters int, gaps []int64) (Plan, error) {
	if err := checkCores(cores); err != nil {
		return Plan{}, err
	}
	k, ok := kernels.ByID(kernelID)
	if !ok {
		return Plan{}, fmt.Errorf("exp: unknown kernel %q", kernelID)
	}
	p := Plan{
		ID:    fmt.Sprintf("sweep %s (%dc)", k.ID, cores),
		Title: fmt.Sprintf("Contention sweep: %s, %d iterations/thread", k.Name, iters),
		Cores: cores,
	}
	for _, gap := range gaps {
		for _, prot := range protocols3 {
			p.Runs = append(p.Runs, Run{
				Kind: KindKernel, Workload: k.ID, Display: k.Name,
				Protocol: prot, Cores: cores, Iters: iters, EqChecks: -1,
				GapMin: sim.Cycle(gap), GapMax: sim.Cycle(gap) + sim.Cycle(gap)/4 + 1,
			})
		}
	}
	return p, nil
}

// ChaosPlan expands the cmd/chaos grid directly (the manifest-free
// path): kernels × chaos protocol configs × seeds at one core count.
func ChaosPlan(kernelIDs, configs []string, cores, iters, seeds int, seedBase uint64, jitter, watchdog int64) (Plan, error) {
	m := Manifest{
		Name:      fmt.Sprintf("chaos (%dc, %d seeds)", cores, seeds),
		Title:     "Chaos sweep: perturbed schedules with live invariant checking",
		Kernels:   kernelIDs,
		Protocols: configs,
		Cores:     []int{cores},
		Iters:     []int{iters},
		Chaos:     &ChaosAxis{Seeds: seeds, SeedBase: seedBase, Jitter: jitter, Watchdog: watchdog},
	}
	return m.Expand()
}

// ChaosVerdict extracts the chaos verdict a journal record carries: "ok"
// for a green run, the bracketed verdict of the deterministic
// "chaos[verdict]: ..." error otherwise.
func ChaosVerdict(rec *Record) string {
	if rec.Status == StatusOK {
		return chaos.VerdictOK
	}
	if i := strings.Index(rec.Error, "chaos["); i >= 0 {
		rest := rec.Error[i+len("chaos["):]
		if j := strings.IndexByte(rest, ']'); j >= 0 {
			return rest[:j]
		}
	}
	return StatusFailed
}

// ChaosCSV renders a chaos plan's journaled records: one row per grid
// point with its per-seed verdict. Byte-identical however the grid was
// executed (serially, in parallel, or resumed across sessions).
func ChaosCSV(w io.Writer, p Plan, records map[string]*Record) error {
	if _, err := fmt.Fprintln(w, "kernel,config,cores,iters,seed,verdict,exec_cycles"); err != nil {
		return err
	}
	for _, r := range p.Runs {
		rec, ok := records[r.Key()]
		if !ok {
			continue // unexecuted points are reported by the driver
		}
		cycles := uint64(0)
		if rec.Status == StatusOK && rec.Stats != nil {
			cycles = uint64(rec.Stats.ExecTime)
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%s,%d\n",
			r.Workload, r.Protocol, r.Cores, r.Iters, r.ChaosSeed, ChaosVerdict(rec), cycles); err != nil {
			return err
		}
	}
	return nil
}

// SweepCSV renders a sweep plan's records in cmd/sweep's CSV format.
func SweepCSV(w io.Writer, p Plan, records map[string]*Record) error {
	if _, err := fmt.Fprintln(w, "kernel,protocol,gap_cycles,exec_cycles,traffic_flit_hops"); err != nil {
		return err
	}
	for _, r := range p.Runs {
		rec, ok := records[r.Key()]
		if !ok || rec.Status != StatusOK {
			continue // failures are reported by the driver, not silently zeroed
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d\n",
			r.Workload, r.Protocol, r.GapMin, rec.Stats.ExecTime, rec.Stats.TotalTraffic); err != nil {
			return err
		}
	}
	return nil
}
