package analysis

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

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("dtncache/internal/sim")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Annot is the module-wide //dtn: annotation registry, covering this
	// package and every module-local package the loader has parsed so
	// far (all of this package's module imports in particular).
	Annot *Annotations
}

// Marked reports whether this package's doc comment carries the given
// //dtn: marker.
func (p *Package) Marked(marker string) bool {
	return p.Annot.PackageMarked(p.Path, marker)
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-local imports are resolved from the
// module root, everything else through the compiler's source importer
// (which reads GOROOT/src and therefore needs no network or export
// data). Loaded type information is cached, so analyzing every package
// of the repo type-checks the standard library once.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	// IncludeTests parses *_test.go files of the package under analysis
	// (in-package tests only; external _test packages are skipped).
	IncludeTests bool

	std   types.ImporterFrom
	cache map[string]*types.Package
	annot *Annotations
}

// NewLoader creates a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        src,
		cache:      make(map[string]*types.Package),
		annot:      NewAnnotations(),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// pathForDir maps a directory to its import path within the module.
func (l *Loader) pathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// dirForPath maps a module import path to its directory.
func (l *Loader) dirForPath(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// LoadDir parses and type-checks the package in dir. The directory may
// live outside the module tree (analyzer testdata does); module-path
// imports still resolve against the loader's module root.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathForDir(dir)
	if err != nil {
		// Out-of-module testdata: synthesize a path from the directory
		// name so diagnostics and scope checks have something to show.
		path = filepath.Base(dir)
	}
	files, err := l.parseDir(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	l.annot.ScanPackage(path, files)
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Annot: l.annot,
	}, nil
}

// parseDir parses the package's Go files in dir, in sorted order so
// diagnostics are stable.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints as go build does, so a file pair
		// split by //go:build race and !race does not type-check as
		// one package with everything declared twice.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var parsed []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	// Keep a single package per directory: drop external test packages
	// ("foo_test") that share the directory with package foo.
	pkgName := ""
	for _, f := range parsed {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
			break
		}
	}
	var files []*ast.File
	for _, f := range parsed {
		if pkgName == "" || f.Name.Name == pkgName {
			files = append(files, f)
		}
	}
	return files, nil
}

// Import implements types.Importer for module-local and standard
// library packages.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if dir, ok := l.dirForPath(path); ok {
		files, err := l.parseDir(dir, false)
		if err != nil {
			return nil, fmt.Errorf("analysis: import %q: %w", path, err)
		}
		conf := types.Config{Importer: l}
		pkg, err := conf.Check(path, l.Fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("analysis: import %q: %w", path, err)
		}
		l.annot.ScanPackage(path, files)
		l.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := l.std.ImportFrom(path, srcDir, mode)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// ExpandPatterns resolves command-line package patterns ("./...",
// "./internal/trace", ".") relative to root into package directories,
// skipping testdata, vendor, and hidden directories.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if base == "." || base == "" {
				base = root
			} else {
				base = filepath.Join(root, base)
			}
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					name := d.Name()
					if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
						name == "testdata" || name == "vendor" || name == "bin") {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
					add(filepath.Dir(p))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(root, pat))
	}
	sort.Strings(dirs)
	return dirs, nil
}
