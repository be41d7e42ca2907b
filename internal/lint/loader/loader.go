// Package loader parses and type-checks Go packages for simlint without
// golang.org/x/tools (the repo builds fully offline). Packages inside the
// analyzed tree are resolved to directories by a caller-supplied function
// and compiled from source; standard-library imports go through the
// go/importer source importer, which reads GOROOT — no network, no
// pre-built export data required.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader loads packages on demand, caching by import path.
type Loader struct {
	Fset *token.FileSet

	// Resolve maps an import path inside the analyzed tree to its
	// directory. Returning ok=false delegates the path to the standard
	// library importer.
	Resolve func(path string) (dir string, ok bool)

	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles (invalid Go, but a clear
	// error beats a stack overflow).
	loading map[string]bool
}

// New returns a loader over fset with the given local-path resolver.
func New(fset *token.FileSet, resolve func(string) (string, bool)) *Loader {
	return &Loader{
		Fset:    fset,
		Resolve: resolve,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Load returns the package for an import path the resolver knows.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.Resolve(path)
	if !ok {
		return nil, fmt.Errorf("loader: %s is not in the analyzed tree", path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	p := &Package{PkgPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of dir that the default build
// context selects (build constraints honored, as the compiler does) in
// name order, with comments, for //simlint:allow directives.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter adapts Loader to types.Importer: local paths load from
// source via the resolver, everything else is standard library.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.Resolve(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
