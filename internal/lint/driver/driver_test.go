package driver_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovosync/internal/lint"
	"denovosync/internal/lint/driver"
)

// TestRepoIsClean is the smoke test behind `make lint`: the full suite
// over this repository must come back empty.
func TestRepoIsClean(t *testing.T) {
	findings, err := driver.Run(repoRoot(t), lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestCatchesUnhandledState demonstrates the acceptance criterion: a new
// protocol state constant with an unhandled switch makes simlint fail.
func TestCatchesUnhandledState(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/mesi/mesi.go": `package mesi

type LineState byte

const (
	Invalid LineState = iota
	Shared
	Modified
	Forwarded // the newly introduced state
)

func Transition(s LineState) int {
	switch s {
	case Invalid:
		return 0
	case Shared:
		return 1
	case Modified:
		return 2
	}
	return -1
}
`,
	})
	findings, err := driver.Run(dir, lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "exhauststate" {
		t.Fatalf("want exactly one exhauststate finding, got %v", findings)
	}
	if !strings.Contains(findings[0].Message, "Forwarded") {
		t.Fatalf("finding does not name the missing state: %s", findings[0].Message)
	}
}

// TestCatchesWallClock demonstrates the other acceptance criterion: a
// time.Now call in internal/sim makes simlint fail.
func TestCatchesWallClock(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/sim/engine.go": `package sim

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	findings, err := driver.Run(dir, lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(findings) != 1 || findings[0].Analyzer != "determinism" {
		t.Fatalf("want exactly one determinism finding, got %v", findings)
	}
}

// TestSuppressionNeedsScope checks an allow directive silences exactly
// its own analyzer, end to end through the driver.
func TestSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/stats/dump.go": `package stats

func Keys(m map[string]int) []string {
	var out []string
	for k := range m { //simlint:allow determinism: keys are sorted by the caller
		out = append(out, k)
	}
	return out
}

func Sum(m map[string]int) int {
	s := 0
	for _, v := range m { // no directive: must be reported
		s += v
	}
	return s
}
`,
	})
	findings, err := driver.Run(dir, lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(findings) != 1 || findings[0].Pos.Line != 13 {
		t.Fatalf("want exactly the undirected range reported (line 13), got %v", findings)
	}
}

// TestRunAllReportsSuppression checks the -json feed: RunAll returns the
// suppressed diagnostic with its directive's reason alongside the live
// finding, and Run filters it.
func TestRunAllReportsSuppression(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/stats/dump.go": `package stats

func Keys(m map[string]int) []string {
	var out []string
	for k := range m { //simlint:allow determinism: keys are sorted by the caller
		out = append(out, k)
	}
	return out
}

func Sum(m map[string]int) int {
	s := 0
	for _, v := range m { // no directive: must be reported
		s += v
	}
	return s
}
`,
	})
	all, err := driver.RunAll(dir, lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.RunAll: %v", err)
	}
	if len(all) != 2 {
		t.Fatalf("want 2 diagnostics (1 live + 1 suppressed), got %v", all)
	}
	var live, supp *driver.Finding
	for i := range all {
		if all[i].Suppressed {
			supp = &all[i]
		} else {
			live = &all[i]
		}
	}
	if live == nil || supp == nil {
		t.Fatalf("want one live and one suppressed, got %v", all)
	}
	if supp.Pos.Line != 5 || supp.Reason != "keys are sorted by the caller" {
		t.Errorf("suppressed finding wrong: line %d, reason %q", supp.Pos.Line, supp.Reason)
	}
	if live.Pos.Line != 13 || live.Reason != "" {
		t.Errorf("live finding wrong: line %d, reason %q", live.Pos.Line, live.Reason)
	}
	kept, err := driver.Run(dir, lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if len(kept) != 1 || kept[0].Suppressed {
		t.Fatalf("Run must filter suppressed diagnostics, got %v", kept)
	}
}

// TestDeterminismScopeBoundary pins the determinism boundary between
// the orchestration layer and a replayable upper layer: the identical
// wall-clock/map-range constructs are clean in internal/exp (host-side
// orchestration: ETAs and timeouts are wall-clock business) but findings
// in internal/chaos, whose (spec, seed) runs must replay bit-identically.
func TestDeterminismScopeBoundary(t *testing.T) {
	src := `package %s

import "time"

func Deadline(ttl time.Duration) time.Time { return time.Now().Add(ttl) }

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	dir := writeModule(t, map[string]string{
		"internal/exp/deadline.go":   fmt.Sprintf(src, "exp"),
		"internal/chaos/deadline.go": fmt.Sprintf(src, "chaos"),
	})
	findings, err := driver.Run(dir, lint.Analyzers())
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	for _, f := range findings {
		if f.Analyzer != "determinism" {
			t.Errorf("unexpected %s finding: %s", f.Analyzer, f)
			continue
		}
		if !strings.Contains(filepath.ToSlash(f.Pos.Filename), "internal/chaos/") {
			t.Errorf("determinism finding outside the chaos scope: %s", f)
		}
	}
	// Both constructs caught in chaos (time.Now + map range), none in
	// exp.
	if len(findings) != 2 {
		t.Fatalf("want exactly 2 findings (both in internal/chaos), got %v", findings)
	}
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module demo\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Clean(filepath.Join(wd, "..", "..", ".."))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}
