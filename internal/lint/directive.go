package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"denovosync/internal/lint/analysis"
)

// Directive comments share one scoping rule across the lint tooling,
// whatever their syntax: an end-of-line directive applies to its own
// line ONLY, and a standalone directive comment applies to its own line
// plus the line below it. (A trailing directive deliberately does NOT
// bless the next line — it used to, and one suppression silently
// swallowed unrelated findings on the following statement.) The
// suppression filter (//simlint:allow) and the liveness certifier's
// audited-obligation escape (//protolive:assume) both parse through this
// helper so the scoping bug cannot regress in one and not the other.

// allowRE matches a suppression directive. The reason after the colon is
// mandatory: an unjustified suppression is itself a finding.
var allowRE = regexp.MustCompile(`//simlint:allow\s+([a-z]+)\s*:\s*(\S.*)`)

// AssumeRE matches a protolive audited-obligation escape:
// //protolive:assume(reason). The reason is mandatory.
var AssumeRE = regexp.MustCompile(`//protolive:assume\((\S[^)]*)\)`)

// BlessedLines scans the files' comments with parse — which returns the
// directive's payload (e.g. a suppression reason) and whether the
// comment is a recognized directive — and returns, per filename, the
// lines each directive applies to, mapped to the payload. Files must
// have been parsed with parser.ParseComments.
func BlessedLines(fset *token.FileSet, files []*ast.File, parse func(text string) (payload string, ok bool)) map[string]map[int]string {
	blessed := map[string]map[int]string{}
	for _, f := range files {
		code := codeLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				payload, ok := parse(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if blessed[pos.Filename] == nil {
					blessed[pos.Filename] = map[int]string{}
				}
				blessed[pos.Filename][pos.Line] = payload
				if !code[pos.Line] { // standalone comment: bless the next line
					blessed[pos.Filename][pos.Line+1] = payload
				}
			}
		}
	}
	return blessed
}

// AllowDirective parses one //simlint:allow comment for analyzer name,
// returning the mandatory reason.
func AllowDirective(text, analyzer string) (reason string, ok bool) {
	m := allowRE.FindStringSubmatch(text)
	if m == nil || m[1] != analyzer || strings.TrimSpace(m[2]) == "" {
		return "", false
	}
	return strings.TrimSpace(m[2]), true
}

// AssumeDirective parses one //protolive:assume(reason) comment,
// returning the mandatory reason.
func AssumeDirective(text string) (reason string, ok bool) {
	m := AssumeRE.FindStringSubmatch(text)
	if m == nil || strings.TrimSpace(m[1]) == "" {
		return "", false
	}
	return strings.TrimSpace(m[1]), true
}

// Malformed-directive detection. A directive that names an unknown
// analyzer (or omits its mandatory reason) suppresses nothing — silently,
// which turns a typo into a no-op waiver. CheckDirectives makes that
// shape a build-failing diagnostic (wired into the driver, so `make
// lint` and the simlint CI step fail on it). The attempt patterns are
// deliberately stricter than free prose: an identifier followed by a
// colon for //simlint:allow, an open parenthesis for
// //protolive:assume — documentation like
// "`//simlint:allow <analyzer>: <reason>`" does not match.
var (
	allowAttemptRE  = regexp.MustCompile(`//simlint:allow\s+([A-Za-z][A-Za-z0-9]*)\s*:`)
	assumeAttemptRE = regexp.MustCompile(`//protolive:assume\(`)
)

// CheckDirectives validates every lint directive comment in files against
// the known analyzer registry and the mandatory-reason rules, returning
// one diagnostic per malformed directive. known reports whether an
// analyzer name is valid (pass lint.ByName(name) != nil; a parameter so
// the directive layer stays decoupled from the analyzer registry).
// Files must have been parsed with parser.ParseComments.
func CheckDirectives(files []*ast.File, known func(name string) bool) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	report := func(pos token.Pos, msg string) {
		out = append(out, analysis.Diagnostic{Pos: pos, Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if m := allowAttemptRE.FindStringSubmatch(text); m != nil {
					switch {
					case !known(m[1]):
						report(c.Pos(), "//simlint:allow names unknown analyzer "+strconv.Quote(m[1])+" — the directive suppresses nothing")
					case m[1] != strings.ToLower(m[1]):
						report(c.Pos(), "//simlint:allow analyzer name "+strconv.Quote(m[1])+" must be lowercase — the directive suppresses nothing")
					default:
						if _, ok := AllowDirective(text, m[1]); !ok {
							report(c.Pos(), "//simlint:allow "+m[1]+" is missing its mandatory reason — the directive suppresses nothing")
						}
					}
					continue
				}
				if assumeAttemptRE.MatchString(text) {
					if _, ok := AssumeDirective(text); !ok {
						report(c.Pos(), "//protolive:assume is missing its mandatory reason — the escape audits nothing")
					}
				}
			}
		}
	}
	return out
}

// codeLines marks the lines of f on which non-comment code starts (used
// to tell an end-of-line directive from a standalone directive comment).
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}
