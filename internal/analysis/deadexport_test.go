package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllow lists the exported funcs and methods under internal/
// and cmd/ that no non-test file of the root or bench module references
// but that stay on purpose, each with its reason. Keys are "pkg.Func"
// or "pkg.Recv.Method" with pkg relative to the module path. Interface
// implementations need no entry: a method that satisfies an interface
// the program mentions counts as referenced.
var deadExportAllow = map[string]string{
	// Reference oracles the production paths are checked against.
	"internal/graph.FromMatrix":          "builds the hand-written rate graphs of the oracle tests",
	"internal/graph.Graph.AllPaths":      "exhaustive path enumeration the frontier search is checked against",
	"internal/graph.Graph.ExactWeight":   "exact Eq. 2 weight the materialized weights are checked against",
	"internal/graph.Paths.Reachable":     "reachability the path-search tests check against BFS",
	"internal/graph.Paths.ExpectedDelay": "shortest-path delay the frontier tests compare with the dense reference",
	"internal/graph.Paths.HopRates":      "rebuilds a path's rates for the NewHypoexp bit-identity check",
	"internal/mathx.Hypoexp.PDF":         "independent check on the CDF (TestHypoexpPDFIntegratesToCDF)",
	"internal/prof.PeakRSS":              "RSS cap of BenchmarkCityScaleReplay",
	// Accessors tests read to observe production state.
	"internal/analysis.Runner.Directives":   "directive parsing the suppression tests observe",
	"internal/buffer.Buffer.Len":            "cache occupancy the buffer, replacement and env tests observe",
	"internal/buffer.Buffer.Stats":          "insert/eviction counts the buffer tests observe",
	"internal/core.Intentional.Stats":       "push-path counters the intentional-scheme tests observe",
	"internal/engine.Engine.Env":            "event counter behind the experiment benchmarks' events/sec",
	"internal/fault.Engine.DownCount":       "churn state the fault tests observe",
	"internal/fault.Engine.Stats":           "crash/kill counts the fault tests observe",
	"internal/graph.Paths.Hops":             "path length the path-search tests observe",
	"internal/graph.Paths.Source":           "path-tree root the path-search tests observe",
	"internal/graph.RateEstimator.Rate":     "per-pair rate the estimator tests observe",
	"internal/knowledge.Snapshot.WeightNNZ": "CSR sparsity the knowledge tests observe",
	"internal/obs.Histogram.Total":          "sample count the obs and experiment tests observe",
	"internal/scheme.Base.Queries":          "carried query copies the scheme and core tests observe",
	"internal/sim.Driver.ActivePeers":       "open-contact index the driver tests observe",
	"internal/sim.Driver.SkippedContacts":   "fault-skipped contact count the fault tests observe",
	"internal/sim.Driver.Stats":             "replay counters the driver tests observe",
	"internal/sim.Session.Closed":           "session state the driver tests observe",
	"internal/sim.Session.SentBits":         "bandwidth accounting the driver tests observe",
	"internal/sim.Simulator.NextEventAt":    "queue head the heap oracle peeks between RunUntil steps",
	"internal/trace.StreamReader.Records":   "record count the chunked-format tests observe",
	"internal/wal.Reader.Records":           "record count the WAL tests observe",
	// Test-only, kept because replacing it would change a test's inputs.
	"internal/mathx.Rand.Int63": "seed draw of the knapsack property test; another draw would change its instances",
}

// deadExportAllowPrefix exempts whole test-support packages.
var deadExportAllowPrefix = map[string]string{
	"internal/trace/tracetest":       "trace fixtures; only tests import it by design",
	"internal/analysis/analysistest": "analyzer test harness; only tests import it by design",
}

// dynamicMethods are method names the standard library calls through
// anonymous interfaces the program never spells out.
var dynamicMethods = map[string]string{
	"Unwrap": "errors.Is and errors.As walk wrapped errors through it",
}

// TestNoDeadExports fails on every exported func or method under
// internal/ and cmd/ that no non-test file of the root module, and no
// file of the bench module, references: production code that only
// tests reach. The root module is type-checked as one universe so
// references resolve to declarations; bench/dtnbench is a separate
// module and is matched syntactically by package and selector name.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// Every root-module package; bench/ is a module of its own.
	dirs, err := ExpandPatterns(l.ModuleRoot, []string{".", "./cmd/...", "./examples/...", "./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	u := &universe{l: l, pkgs: map[string]*Package{}}
	for _, dir := range dirs {
		path, err := l.pathForDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.load(path); err != nil {
			t.Fatal(err)
		}
	}
	benchFuncs, benchSels, err := benchReferences(filepath.Join(l.ModuleRoot, "bench", "dtnbench"), l.ModulePath)
	if err != nil {
		t.Fatal(err)
	}

	used := map[*types.Func]bool{}
	// Interfaces the standard library consults on values it is handed
	// (error, fmt.Stringer, json.Marshaler, ...) count as mentioned.
	ifaces := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
	}
	for _, path := range []string{"fmt", "encoding", "encoding/json"} {
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range pkg.Scope().Names() {
			collectInterfaces(pkg.Scope().Lookup(name).Type(), ifaces, map[types.Type]bool{})
		}
	}
	for _, p := range u.pkgs {
		seen := map[types.Type]bool{}
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
			if obj != nil {
				collectInterfaces(obj.Type(), ifaces, seen)
			}
		}
		for _, tv := range p.Info.Types {
			collectInterfaces(tv.Type, ifaces, seen)
		}
	}

	declared := map[string]bool{}
	var dead []string
	for _, p := range u.pkgs {
		rel := strings.TrimPrefix(p.Path, l.ModulePath+"/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				key := rel + "." + fd.Name.Name
				recv := recvNamed(fn)
				if recv != nil {
					key = rel + "." + recv.Obj().Name() + "." + fd.Name.Name
				}
				declared[key] = true
				if used[fn] && deadExportAllow[key] != "" {
					t.Errorf("allowlisted %s now has a non-test caller; drop its entry", key)
				}
				name := fd.Name.Name
				switch {
				case used[fn], deadExportAllow[key] != "", allowedPrefix(rel):
				case recv == nil && benchFuncs[p.Path+"."+name]:
				case recv != nil && (dynamicMethods[name] != "" || benchSels[name] ||
					satisfiesUsedInterface(recv, name, ifaces)):
				default:
					dead = append(dead, key+" ("+p.Fset.Position(fd.Pos()).String()+")")
				}
			}
		}
	}
	// Every entry must still name a declaration, so the list cannot rot.
	for key := range deadExportAllow {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no exported func or method", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no non-test caller; delete it or allowlist it with a reason", d)
	}
}

func allowedPrefix(rel string) bool {
	for p := range deadExportAllowPrefix {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// universe type-checks module packages with full type info into the
// loader's cache, dependencies first, so every package shares one set
// of type objects and a use in one package resolves to the declaration
// in another.
type universe struct {
	l    *Loader
	pkgs map[string]*Package
}

func (u *universe) load(path string) error {
	if _, ok := u.pkgs[path]; ok {
		return nil
	}
	dir, ok := u.l.dirForPath(path)
	if !ok {
		return nil
	}
	files, err := u.l.parseDir(dir, false)
	if err != nil {
		return err
	}
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if _, local := u.l.dirForPath(ip); local {
				if err := u.load(ip); err != nil {
					return err
				}
			}
		}
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, err := (&types.Config{Importer: u.l}).Check(path, u.l.Fset, files, info)
	if err != nil {
		return err
	}
	u.l.cache[path] = tpkg
	u.pkgs[path] = &Package{Path: path, Dir: dir, Fset: u.l.Fset, Files: files, Types: tpkg, Info: info}
	return nil
}

// benchReferences parses the bench module's files (tests included: the
// module's benchmarks are its product) and returns the qualified
// package-level identifiers it selects from root-module packages
// ("dtncache/internal/trace.NewSliceSource") and every selector name it
// uses, which is matched against method names.
func benchReferences(dir, modPath string) (funcs, sels map[string]bool, err error) {
	fset := token.NewFileSet()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	funcs, sels = map[string]bool{}, map[string]bool{}
	for _, name := range matches {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if ip != modPath && !strings.HasPrefix(ip, modPath+"/") {
				continue
			}
			local := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sels[se.Sel.Name] = true
			if id, ok := se.X.(*ast.Ident); ok && imports[id.Name] != "" {
				funcs[imports[id.Name]+"."+se.Sel.Name] = true
			}
			return true
		})
	}
	return funcs, sels, nil
}

// recvNamed returns the named receiver type of a method, nil for a
// plain function.
func recvNamed(fn *types.Func) *types.Named {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// collectInterfaces adds every method-set interface reachable from t
// through pointers, containers and signatures.
func collectInterfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch tt := t.(type) {
	case *types.Named:
		collectInterfaces(tt.Underlying(), out, seen)
	case *types.Interface:
		if tt.IsMethodSet() && tt.NumMethods() > 0 {
			out[tt] = true
		}
	case *types.Pointer:
		collectInterfaces(tt.Elem(), out, seen)
	case *types.Slice:
		collectInterfaces(tt.Elem(), out, seen)
	case *types.Array:
		collectInterfaces(tt.Elem(), out, seen)
	case *types.Map:
		collectInterfaces(tt.Key(), out, seen)
		collectInterfaces(tt.Elem(), out, seen)
	case *types.Chan:
		collectInterfaces(tt.Elem(), out, seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{tt.Params(), tt.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaces(tup.At(i).Type(), out, seen)
			}
		}
	}
}

// satisfiesUsedInterface reports whether recv (or *recv) implements an
// interface the program mentions that declares method name: the method
// is then reached by dynamic dispatch.
func satisfiesUsedInterface(recv *types.Named, name string, ifaces map[*types.Interface]bool) bool {
	ptr := types.NewPointer(recv)
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != name {
				continue
			}
			if types.Implements(recv, it) || types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
