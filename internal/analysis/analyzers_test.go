package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The analyzer tests follow the x/tools analysistest idiom: golden fixture
// packages live under testdata/src/<import path>/, and every line expected to
// produce a diagnostic carries a trailing `// want "regexp"` comment. The
// fixtures include stand-ins for time, os and math/rand so the suite
// type-checks offline without GOROOT sources.

func TestMapOrder(t *testing.T)  { testAnalyzer(t, MapOrder, "clip/internal/sim") }
func TestWallClock(t *testing.T) { testAnalyzer(t, WallClock, "clip/internal/cpu") }
func TestFloatSum(t *testing.T)  { testAnalyzer(t, FloatSum, "clip/internal/stats") }
func TestHotMap(t *testing.T)    { testAnalyzer(t, HotMap, "clip/internal/dspatch") }

// TestCallGraph pins the directive lint (the test is named for the
// analyzer that used to host it).
func TestCallGraph(t *testing.T) { testAnalyzer(t, Directives, "clip/internal/sim/lint") }

// Outside the deterministic package set the whole suite must stay silent,
// even over code that would trip every analyzer inside it.
func TestSuiteSilentOutsideContract(t *testing.T) {
	for _, a := range Analyzers() {
		testAnalyzer(t, a, "clip/internal/runner")
	}
}

func TestIsDeterministic(t *testing.T) {
	cases := map[string]bool{
		"clip/internal/sim":                          true,
		"clip/internal/experiments":                  true,
		"clip/internal/workload":                     true,
		"clip/internal/sim [clip/internal/sim.test]": true,
		"clip/internal/mem":                          false,
		"clip/internal/runner":                       false,
		"clip/internal/analysis":                     false,
		"clip/cmd/clipsim":                           false,
		"clip":                                       false,
		"time":                                       false,
	}
	for path, want := range cases {
		if got := IsDeterministic(path); got != want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", path, got, want)
		}
	}
}

func testAnalyzer(t *testing.T, a *Analyzer, target string) {
	t.Helper()
	l := newFixtureLoader(t)
	pkg := l.load(target)
	diags, err := RunAnalyzers([]*Analyzer{a}, l.fset, pkg.files, pkg.files, pkg.tpkg, pkg.info)
	if err != nil {
		t.Fatalf("%s on %s: %v", a.Name, target, err)
	}
	wants := collectWants(t, l.fset, pkg.files)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, w := range wants[key] {
			if w != nil && w.MatchString(d.Message) {
				wants[key][i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s: %s: expected diagnostic matching %q not reported", a.Name, key, w)
			}
		}
	}
}

var wantRE = regexp.MustCompile(`// want (".*")$`)

// collectWants extracts `// want "regexp"` expectations keyed by file:line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pattern, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("bad want comment %q: %v", c.Text, err)
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], regexp.MustCompile(pattern))
			}
		}
	}
	return wants
}

// fixtureLoader type-checks testdata/src packages on demand, resolving
// fixture-internal imports (including the fake time/os/math-rand stand-ins)
// recursively through itself.
type fixtureLoader struct {
	t    *testing.T
	fset *token.FileSet
	root string
	pkgs map[string]*fixturePkg
}

type fixturePkg struct {
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	return &fixtureLoader{
		t:    t,
		fset: token.NewFileSet(),
		root: filepath.Join("testdata", "src"),
		pkgs: map[string]*fixturePkg{},
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	return l.load(path).tpkg, nil
}

func (l *fixtureLoader) load(path string) *fixturePkg {
	l.t.Helper()
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("fixture package %s: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatalf("parsing fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking fixture %s: %v", path, err)
	}
	p := &fixturePkg{files: files, tpkg: tpkg, info: info}
	l.pkgs[path] = p
	return p
}
