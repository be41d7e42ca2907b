// Package driver runs the simlint suite over a Go module on disk. It is
// the engine behind cmd/simlint and the in-process smoke tests: it
// enumerates the module's packages, loads each one that any analyzer's
// scope covers, runs the scoped analyzers, and applies the
// //simlint:allow suppression filter.
package driver

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"denovosync/internal/lint"
	"denovosync/internal/lint/analysis"
	"denovosync/internal/lint/loader"
)

// Finding is one diagnostic: either a live finding or one a
// //simlint:allow directive suppressed (Suppressed true, with the
// directive's mandatory reason).
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string

	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// ModulePath reads the module path from dir/go.mod.
func ModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("driver: no module line in %s/go.mod", dir)
	}
	return string(m[1]), nil
}

// ModulePathUp finds the nearest enclosing module of dir (walking up to
// the filesystem root) and returns its module path.
func ModulePathUp(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if mod, err := ModulePath(dir); err == nil {
			return mod, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("driver: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Run applies analyzers to every package of the module rooted at
// moduleDir and returns the surviving (unsuppressed) findings, sorted by
// position. A package that fails to load is an error: simlint findings
// are only trustworthy on code the type checker accepted.
func Run(moduleDir string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	all, err := RunAll(moduleDir, analyzers)
	if err != nil {
		return nil, err
	}
	kept := all[:0:0]
	for _, f := range all {
		if !f.Suppressed {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// RunAll is Run without the suppression filter: every diagnostic comes
// back, the silenced ones marked Suppressed with their directive's
// reason. It feeds cmd/simlint -json, where an auditor wants to see the
// waivers alongside the live findings.
func RunAll(moduleDir string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modulePath, err := ModulePath(moduleDir)
	if err != nil {
		return nil, err
	}
	rels, err := packageDirs(moduleDir)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ld := loader.New(fset, func(path string) (string, bool) {
		if path == modulePath {
			return moduleDir, true
		}
		if rest, ok := strings.CutPrefix(path, modulePath+"/"); ok {
			dir := filepath.Join(moduleDir, filepath.FromSlash(rest))
			if st, err := os.Stat(dir); err == nil && st.IsDir() {
				return dir, true
			}
		}
		return "", false
	})

	var findings []Finding
	for _, rel := range rels {
		// Directive hygiene runs on every package — including ones outside
		// all analyzer scopes — so a //simlint:allow naming an unknown
		// analyzer (or a reason-less //protolive:assume) is a build-failing
		// diagnostic instead of a silent no-op. Comment scanning needs parsing only, not types, and
		// covers _test.go files the typed load below excludes.
		dfset, dfiles, err := parseDirComments(filepath.Join(moduleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, fmt.Errorf("driver: parsing %s for directives: %w", rel, err)
		}
		for _, d := range lint.CheckDirectives(dfiles, func(name string) bool { return lint.ByName(name) != nil }) {
			findings = append(findings, Finding{
				Analyzer: "directive",
				Pos:      dfset.Position(d.Pos),
				Message:  d.Message,
			})
		}

		var scoped []*analysis.Analyzer
		for _, a := range analyzers {
			if lint.InScope(a, rel) {
				scoped = append(scoped, a)
			}
		}
		if len(scoped) == 0 {
			continue
		}
		pkgPath := modulePath
		if rel != "." {
			pkgPath = modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := ld.Load(pkgPath)
		if err != nil {
			return nil, err
		}
		for _, a := range scoped {
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, pkgPath, err)
			}
			kept, supp := lint.Partition(fset, pkg.Files, a, diags)
			for _, d := range kept {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			for _, s := range supp {
				findings = append(findings, Finding{
					Analyzer:   a.Name,
					Pos:        fset.Position(s.Diag.Pos),
					Message:    s.Diag.Message,
					Suppressed: true,
					Reason:     s.Reason,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// parseDirComments parses every .go file of one directory (tests
// included) with comments, for the directive hygiene scan. No type
// checking: directive validation is purely syntactic.
func parseDirComments(dir string) (*token.FileSet, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// packageDirs returns the module-relative directories containing
// buildable Go files, in sorted order. testdata, vendor, hidden
// directories, and nested modules are skipped, matching the go tool.
func packageDirs(moduleDir string) ([]string, error) {
	var rels []string
	err := filepath.WalkDir(moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != moduleDir {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
				rel, err := filepath.Rel(moduleDir, path)
				if err != nil {
					return err
				}
				rels = append(rels, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	return rels, nil
}
