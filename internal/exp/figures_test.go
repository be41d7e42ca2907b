package exp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigurePlanMatchesHarness pins the planners against the figures the
// harness's own figure functions produced before exp became the one
// definition: their scale-10 CSVs are frozen in internal/harness/testdata
// (Figures 3-7 from harness.Fig*, the ablations from harness.Ablation*).
// The plan, executed on a 4-worker pool rather than Reproduce's default
// one and assembled by Figure, must render them byte for byte.
func TestFigurePlanMatchesHarness(t *testing.T) {
	names := []string{"fig3", "eqchecks", "invall", "hwparams"}
	if !testing.Short() {
		names = append(names, "fig7")
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			golden := name + "_16c_scale10.csv"
			if name == "fig7" {
				golden = "fig7_scale10.csv"
			}
			want, err := os.ReadFile(filepath.Join("..", "harness", "testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := FigurePlan(name, 16, Options{Scale: 10})
			if err != nil {
				t.Fatalf("FigurePlan: %v", err)
			}
			records, _, err := (&Engine{Workers: 4}).Execute(plan)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			got, err := Figure(plan, records)
			if err != nil {
				t.Fatalf("Figure: %v", err)
			}
			var gotCSV bytes.Buffer
			got.CSV(&gotCSV)
			if !bytes.Equal(gotCSV.Bytes(), want) {
				t.Errorf("exp-planned %s diverges from the harness figure %s:\n--- exp ---\n%s--- harness ---\n%s",
					name, golden, gotCSV.String(), want)
			}
		})
	}
}

func TestFigurePlanUnknown(t *testing.T) {
	if _, err := FigurePlan("fig99", 16, Options{}); err == nil {
		t.Fatal("want error for unknown figure")
	}
	if _, err := FigurePlan("fig3", 12, Options{}); err == nil {
		t.Fatal("want error for unsupported cores")
	}
}

func TestFigureReportsMissingAndFailedRuns(t *testing.T) {
	plan, err := FigurePlan("fig3", 16, Options{Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	records := map[string]*Record{}
	for i, r := range plan.Runs {
		if i == 0 {
			continue // missing
		}
		rec := &Record{Key: r.Key(), Run: r, Status: StatusOK, Attempts: 1}
		if i == 1 {
			rec.Status, rec.Error = StatusFailed, "panic: boom"
		}
		records[r.Key()] = rec
	}
	_, err = Figure(plan, records)
	if err == nil {
		t.Fatal("Figure accepted an incomplete record set")
	}
	for _, want := range []string{"missing", "panic: boom", "2 of"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestKillAndResumeByteIdenticalCSV is the end-to-end resumability
// guarantee on real simulations: interrupt a sweep grid mid-flight,
// resume it in a second session, and the merged CSV must be
// byte-identical to an uninterrupted serial run of the same plan.
func TestKillAndResumeByteIdenticalCSV(t *testing.T) {
	plan, err := SweepPlan("tatas-counter", 16, 2, []int64{400, 1600})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Runs) != 6 {
		t.Fatalf("sweep plan has %d runs, want 6", len(plan.Runs))
	}

	// Reference: uninterrupted, serial, no journal.
	refRecords, _, err := (&Engine{Workers: 1}).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := SweepCSV(&refCSV, plan, refRecords); err != nil {
		t.Fatal(err)
	}

	// Interrupted parallel session...
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
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
		t.Fatalf("interruption executed the whole grid (%d runs); test is vacuous", sum.Executed)
	}

	// ...then a resumed session completes the rest.
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
	if err := SweepCSV(&gotCSV, plan, records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), refCSV.Bytes()) {
		t.Errorf("kill-and-resume CSV diverges from the uninterrupted run:\n--- resumed ---\n%s--- serial ---\n%s",
			gotCSV.String(), refCSV.String())
	}

	// And the journal alone (reloaded from disk) merges identically.
	reloaded, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*Record{}
	for _, rec := range reloaded {
		byKey[rec.Key] = rec
	}
	var fromDisk bytes.Buffer
	if err := SweepCSV(&fromDisk, plan, byKey); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDisk.Bytes(), refCSV.Bytes()) {
		t.Errorf("journal-merged CSV diverges from the uninterrupted run")
	}
}
