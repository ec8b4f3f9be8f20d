package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFuzzTargetsMatchCheckScript pins scripts/check.sh's two fuzz
// lists to the root module's fuzz targets in both directions: every
// package with a func Fuzz* must be on the seed-corpora `go test -run
// '^Fuzz'` line and every target in the CHECK_FUZZ_TIME list, and
// neither list may name a package or target that no longer exists.
func TestFuzzTargetsMatchCheckScript(t *testing.T) {
	root := filepath.Join("..", "..")
	script, err := os.ReadFile(filepath.Join(root, "scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	seedPkgs, targets := checkScriptFuzzLists(t, string(script))

	found := make(map[string]bool) // "./pkg FuzzName"
	pkgs := make(map[string]bool)
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			// A nested module (bench/) is outside the root module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				found[pkg+" "+fn.Name.Name] = true
				pkgs[pkg] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found in the root module")
	}

	for _, target := range sortedKeys(found) {
		if !targets[target] {
			t.Errorf("fuzz target %q is missing from check.sh's CHECK_FUZZ_TIME list", target)
		}
	}
	for _, target := range sortedKeys(targets) {
		if !found[target] {
			t.Errorf("check.sh's CHECK_FUZZ_TIME list names %q, which does not exist", target)
		}
	}
	for _, pkg := range sortedKeys(pkgs) {
		if !seedPkgs[pkg] {
			t.Errorf("%s has fuzz targets but is missing from check.sh's seed-corpora line", pkg)
		}
	}
	for _, pkg := range sortedKeys(seedPkgs) {
		if !pkgs[pkg] {
			t.Errorf("check.sh's seed-corpora line names %s, which has no fuzz target", pkg)
		}
	}
}

var fuzzTargetEntry = regexp.MustCompile(`^"(\./\S+) (Fuzz\w*)"$`)

// checkScriptFuzzLists extracts the packages of the seed-corpora
// command (`go test ... -run '^Fuzz' pkgs...`, with its backslash
// continuations) and the "pkg FuzzName" entries of the targets=( )
// array.
func checkScriptFuzzLists(t *testing.T, script string) (seedPkgs, targets map[string]bool) {
	t.Helper()
	seedPkgs, targets = make(map[string]bool), make(map[string]bool)
	lines := strings.Split(script, "\n")
	seedLines, inSeed, inTargets := 0, false, false
	for _, line := range lines {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "go test") && strings.Contains(line, "-run '^Fuzz'"):
			seedLines++
			inSeed = true
			line = line[strings.Index(line, "-run '^Fuzz'")+len("-run '^Fuzz'"):]
		case line == "targets=(":
			inTargets = true
			continue
		}
		if inSeed {
			cont := strings.HasSuffix(line, `\`)
			for _, f := range strings.Fields(strings.TrimSuffix(line, `\`)) {
				if !strings.HasPrefix(f, "./") {
					t.Fatalf("unexpected word %q on check.sh's seed-corpora line", f)
				}
				seedPkgs[f] = true
			}
			inSeed = cont
		}
		if inTargets {
			if line == ")" {
				inTargets = false
				continue
			}
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			m := fuzzTargetEntry.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unexpected line %q in check.sh's fuzz targets list", line)
			}
			targets[m[1]+" "+m[2]] = true
		}
	}
	if seedLines != 1 || len(seedPkgs) == 0 || len(targets) == 0 {
		t.Fatalf("check.sh: %d seed-corpora lines naming %d packages and %d fuzz targets; want one line and both lists non-empty",
			seedLines, len(seedPkgs), len(targets))
	}
	return seedPkgs, targets
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
