package lint_test

import (
	"strings"
	"testing"

	"denovosync/internal/lint"
	"denovosync/internal/lint/analysis"
)

// TestBlessedLinesBoundaryScoping pins where a directive's scope ends,
// for a directive that carries its reason in parentheses: a trailing
// //protolive:assume(...) covers only its own line, a standalone one
// covers its own line and the next — exactly the //simlint:allow rule,
// because both parse through the same helper. (The PR 5 scoping bug —
// a trailing directive also blessing the NEXT line — must stay fixed
// for both directives.)
func TestBlessedLinesBoundaryScoping(t *testing.T) {
	fset, files, _ := filterFixture(t, map[string]string{
		"a.go": `package p

type S struct {
	//protolive:assume(standalone: blesses the field below)
	A int
	B int //protolive:assume(trailing: blesses only this line)
	C int
}
`,
	})
	blessed := lint.BlessedLines(fset, files, lint.AssumeDirective)
	want := map[int]string{
		4: "standalone: blesses the field below",
		5: "standalone: blesses the field below",
		6: "trailing: blesses only this line",
	}
	got := blessed["a.go"]
	if len(got) != len(want) {
		t.Fatalf("blessed lines = %v, want %v", got, want)
	}
	for line, reason := range want {
		if got[line] != reason {
			t.Errorf("line %d: reason %q, want %q", line, got[line], reason)
		}
	}
	if _, ok := got[7]; ok {
		t.Errorf("line 7 (below a trailing directive) must NOT be blessed")
	}
}

// TestAssumeDirectiveRequiresReason pins the protolive escape syntax:
// parenthesized, reason mandatory.
func TestAssumeDirectiveRequiresReason(t *testing.T) {
	for _, text := range []string{
		"//protolive:assume()",
		"//protolive:assume( )",
		"//protolive:assume",
		"// an ordinary comment",
	} {
		if _, ok := lint.AssumeDirective(text); ok {
			t.Errorf("%q parsed as a valid assume directive", text)
		}
	}
	reason, ok := lint.AssumeDirective("//protolive:assume(handoff bounded by the registry serial)")
	if !ok || reason != "handoff bounded by the registry serial" {
		t.Errorf("valid directive parsed as (%q, %v)", reason, ok)
	}
}

// TestCheckDirectivesUnknownAnalyzer pins the build-failing diagnostic
// for directives naming an unknown analyzer: a typo used to silently
// suppress nothing.
func TestCheckDirectivesUnknownAnalyzer(t *testing.T) {
	fset, files, _ := filterFixture(t, map[string]string{
		"a.go": `package p

func f() {
	_ = 1 //simlint:allow determinsm: typo in the analyzer name
	_ = 2 //simlint:allow determinism: valid directive
	_ = 3 //simlint:allow Determinism: miscased name never matches
	_ = 4 //simlint:allow determinism:
	//protolive:assume()
	_ = 5
	//protolive:assume(justified: fixture)
	_ = 6
}
`,
	})
	known := func(name string) bool { return lint.ByName(name) != nil }
	diags := lint.CheckDirectives(files, known)
	wantLines := map[int]string{
		4: "unknown analyzer",
		6: "must be lowercase",
		7: "missing its mandatory reason",
		8: "//protolive:assume is missing",
	}
	if len(diags) != len(wantLines) {
		for _, d := range diags {
			t.Logf("diag: %s: %s", fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(wantLines))
	}
	for _, d := range diags {
		line := fset.Position(d.Pos).Line
		substr, ok := wantLines[line]
		if !ok {
			t.Errorf("unexpected diagnostic at line %d: %s", line, d.Message)
			continue
		}
		if !strings.Contains(d.Message, substr) {
			t.Errorf("line %d: message %q does not mention %q", line, d.Message, substr)
		}
	}
}

// TestCheckDirectivesIgnoresProse proves documentation that merely
// mentions the directive syntax is not flagged.
func TestCheckDirectivesIgnoresProse(t *testing.T) {
	_, files, _ := filterFixture(t, map[string]string{
		"a.go": `package p

// Suppress a finding at the site with
// "//simlint:allow <analyzer>: <reason>"; audit an obligation with
// //protolive:assume(reason). The //simlint:allow suppression filter
// shares its scoping rule with it.
func f() {}
`,
	})
	known := func(name string) bool { return lint.ByName(name) != nil }
	if diags := lint.CheckDirectives(files, known); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("prose flagged: %s", d.Message)
		}
	}
}

// TestPartitionReportsSuppressions pins the machine-readable suppression
// info behind cmd/simlint -json: Partition returns both the kept
// findings and the suppressed ones with their directive reasons.
func TestPartitionReportsSuppressions(t *testing.T) {
	fset, files, at := filterFixture(t, map[string]string{
		"a.go": `package p

func f() {
	_ = 1 //simlint:allow determinism: justified here
	_ = 2
}
`,
	})
	diags := []analysis.Diagnostic{at("a.go", 4), at("a.go", 5)}
	kept, supp := lint.Partition(fset, files, lint.Determinism, diags)
	if len(kept) != 1 || fset.Position(kept[0].Pos).Line != 5 {
		t.Fatalf("want the line-5 finding kept, got %v", positions(fset, kept))
	}
	if len(supp) != 1 || supp[0].Reason != "justified here" {
		t.Fatalf("want one suppression with its reason, got %+v", supp)
	}
	if fset.Position(supp[0].Diag.Pos).Line != 4 {
		t.Fatalf("suppressed diagnostic at line %d, want 4", fset.Position(supp[0].Diag.Pos).Line)
	}
}
