package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestChaosManifestExpand(t *testing.T) {
	m := Manifest{
		Name:    "chaos-x",
		Kernels: []string{"tatas-counter", "bar-tree"},
		Iters:   []int{5},
		Chaos:   &ChaosAxis{Seeds: 3, SeedBase: 10, Jitter: 8, Watchdog: 500_000},
	}
	p, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 kernels × 4 default configs × 1 core count × 1 iters × 3 seeds.
	if len(p.Runs) != 24 {
		t.Fatalf("expanded %d runs, want 24", len(p.Runs))
	}
	if !p.IsChaos() {
		t.Error("chaos plan not recognized as chaos")
	}
	keys := map[string]bool{}
	configs := map[string]bool{}
	for _, r := range p.Runs {
		if r.Kind != KindChaos {
			t.Fatalf("run %s has kind %q", r, r.Kind)
		}
		if r.ChaosSeed < 10 || r.ChaosSeed > 12 {
			t.Errorf("run %s: seed %d outside [10,12]", r, r.ChaosSeed)
		}
		if r.ChaosJitter != 8 || r.ChaosWatchdog != 500_000 {
			t.Errorf("run %s: jitter/watchdog not propagated", r)
		}
		keys[r.Key()] = true
		configs[r.Protocol] = true
	}
	if len(keys) != 24 {
		t.Errorf("%d distinct keys for 24 runs — seeds not keyed?", len(keys))
	}
	for _, want := range []string{"M", "DS0", "DS", "DSsig"} {
		if !configs[want] {
			t.Errorf("default chaos configs missing %q", want)
		}
	}
}

func TestChaosManifestErrors(t *testing.T) {
	cases := []Manifest{
		{Name: "a", Kernels: []string{"tatas-counter"}, Apps: []string{"barnes"}, Chaos: &ChaosAxis{Seeds: 2}},
		{Name: "b", Kernels: []string{"tatas-counter"}, Chaos: &ChaosAxis{Seeds: 0}},
		{Name: "c", Kernels: []string{"tatas-counter"}, Protocols: []string{"DSx"}, Chaos: &ChaosAxis{Seeds: 2}},
		{Name: "d", Kernels: []string{"no-such"}, Chaos: &ChaosAxis{Seeds: 2}},
		{Name: "e", Kernels: []string{"tatas-counter"}, Cores: []int{32}, Chaos: &ChaosAxis{Seeds: 2}},
	}
	for _, m := range cases {
		if _, err := m.Expand(); err == nil {
			t.Errorf("manifest %q: expected an expansion error", m.Name)
		}
	}
}

func TestChaosVerdictExtraction(t *testing.T) {
	cases := []struct {
		rec  Record
		want string
	}{
		{Record{Status: StatusOK}, "ok"},
		{Record{Status: StatusFailed, Error: "chaos[watchdog]: no core retired"}, "watchdog"},
		{Record{Status: StatusFailed, Error: "run x: chaos[violation]: 3 invariant violations"}, "violation"},
		{Record{Status: StatusFailed, Error: "panic: boom"}, StatusFailed},
	}
	for _, c := range cases {
		if got := ChaosVerdict(&c.rec); got != c.want {
			t.Errorf("ChaosVerdict(%q) = %q, want %q", c.rec.Error, got, c.want)
		}
	}
}

// TestChaosKillResumeByteIdenticalCSV interrupts a real chaos grid
// mid-flight and resumes it; the merged per-seed verdict CSV must be
// byte-identical to an uninterrupted serial run.
func TestChaosKillResumeByteIdenticalCSV(t *testing.T) {
	plan, err := ChaosPlan([]string{"tatas-counter"}, []string{"M", "DS"}, 16, 4, 3, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 6 {
		t.Fatalf("chaos plan has %d runs, want 6", len(plan.Runs))
	}

	refRecords, _, err := (&Engine{Workers: 1}).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := MergeCSV(&refCSV, plan, refRecords); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(refCSV.String(), ",ok,") {
		t.Fatalf("reference chaos CSV has no ok verdicts:\n%s", refCSV.String())
	}

	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	j, prior, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := (&Engine{Workers: 2, StopAfter: 2, Journal: j, Prior: prior}).Execute(plan)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.Executed >= len(plan.Runs) {
		t.Fatalf("interruption executed the whole grid; test is vacuous")
	}

	j, prior, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	records, sum2, err := (&Engine{Workers: 2, Journal: j, Prior: prior}).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != sum.Executed {
		t.Errorf("resume re-executed journaled runs: resumed %d, first session executed %d", sum2.Resumed, sum.Executed)
	}

	var gotCSV bytes.Buffer
	if err := MergeCSV(&gotCSV, plan, records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Errorf("kill-and-resume chaos CSV diverges:\n--- resumed ---\n%s--- serial ---\n%s",
			gotCSV.String(), refCSV.String())
	}
}

// TestChaosRunKeysUnchangedForFigureRuns pins a figure run's key: adding
// the chaos fields did not change it (all chaos fields are omitempty and
// zero), so only a keySchema bump may move it.
func TestChaosRunKeysUnchangedForFigureRuns(t *testing.T) {
	r := Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "M", Cores: 16, EqChecks: -1}
	if got := r.Key(); got != "a3fbd33e172b7d34" {
		t.Errorf("figure run key drifted to %q — journaled results would re-execute", got)
	}
	// The structural reason keys survived the chaos fields: they are all
	// omitempty, so a figure run's canonical JSON never mentions them.
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "chaos") {
		t.Errorf("figure run JSON mentions chaos fields: %s", b)
	}
}
