// Package analysis implements clipvet, the project's static-analysis suite
// enforcing the simulator's determinism contract.
//
// Every figure report is byte-identical for any -workers count, but that
// guarantee rests on conventions the compiler does not know about: map
// iterations must be order-free or sorted, simulation code must not read
// wall-clock time or ambient randomness, and float sums must not depend on
// map order. This package turns those conventions into machine-checked rules,
// and only those no test enforces: allocation on the tick path, for one, is
// budgeted at run time by internal/sim's TestSteadyStateAllocs.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) but is built entirely on the standard
// library — go/ast, go/parser, go/types and gc export data resolved through
// `go list -export` — so the module stays dependency-free. cmd/clipvet runs
// the suite standalone (`clipvet ./...`) and as a `go vet -vettool=`
// unitchecker. Every analyzer looks at one package at a time.
//
// # Analyzers
//
//   - directives: integrity of the //clipvet: annotations — unknown
//     directive names.
//   - maporder: `for range` over a map in a deterministic package, unless
//     annotated //clipvet:orderfree.
//   - wallclock: time.Now/Since/Until, global math/rand, os.Getenv in
//     deterministic packages.
//   - floatsum: order-sensitive float accumulation inside a map-range body
//     (fires even under //clipvet:orderfree — float addition is not
//     associative; sort the keys instead), unless annotated
//     //clipvet:floatorder.
//   - hotmap: any map type in a hot package (internal/prefetch,
//     internal/criticality, internal/core, internal/dspatch) — per-access
//     state there must use the internal/table kernels — unless annotated
//     //clipvet:hotmap.
//
// # Annotations
//
// Escape hatches are comment directives placed on the offending line or the
// line directly above it, followed by a one-line justification:
//
//	//clipvet:orderfree per-key counters only; no cross-iteration state
//	for k, v := range m { ... }
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, the stdlib-only analogue of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (clipvet/%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test files; analyzers inspect these.
	// (Test files participate in type-checking but are exempt from the
	// determinism contract: tests may range over maps to compare results.)
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	dirs   *directiveIndex
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DirectivePrefix is the comment prefix of clipvet annotations.
const DirectivePrefix = "clipvet:"

// HasDirective reports whether a //clipvet:<name> annotation covers pos:
// the directive sits on the same line or on the line immediately above.
func (p *Pass) HasDirective(pos token.Pos, name string) bool {
	return p.dirs.has(p.Fset, pos, name)
}

// directive is one //clipvet:<name> comment occurrence.
type directive struct {
	name string
	pos  token.Pos
}

// directiveIndex maps filename -> line -> directives on that line. It backs
// Pass.HasDirective and retains positions so the directives analyzer can
// lint misplaced or unknown directives.
type directiveIndex struct {
	lines map[string]map[int][]directive
}

func newDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{lines: map[string]map[int][]directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+DirectivePrefix)
				if !ok {
					continue
				}
				name, _, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				m := idx.lines[pos.Filename]
				if m == nil {
					m = map[int][]directive{}
					idx.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], directive{name: name, pos: c.Pos()})
			}
		}
	}
	return idx
}

// has reports whether a directive named name covers pos (same line or the
// line immediately above).
func (idx *directiveIndex) has(fset *token.FileSet, pos token.Pos, name string) bool {
	position := fset.Position(pos)
	lines := idx.lines[position.Filename]
	for _, l := range []int{position.Line, position.Line - 1} {
		for _, d := range lines[l] {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// deterministicPkgs are the internal packages whose behaviour must be a pure
// function of the simulation inputs: everything that executes between
// workload generation and report assembly. internal/mem is exempt (it hosts
// the seeded PRNG); internal/runner orchestrates goroutines whose scheduling
// is invisible to results by construction (order-free reductions are
// re-asserted where they land, in experiments). internal/workload draws the
// mixes and names the report rows, so a clock read there reaches a report.
var deterministicPkgs = map[string]bool{
	"sim": true, "cpu": true, "cache": true, "dram": true, "noc": true,
	"prefetch": true, "core": true, "criticality": true, "hermes": true,
	"dspatch": true, "throttle": true, "tlb": true, "trace": true,
	"energy": true, "stats": true, "experiments": true, "workload": true,
}

// IsDeterministic reports whether pkgPath is subject to the determinism
// contract. Test-variant suffixes ("pkg [pkg.test]") are ignored.
func IsDeterministic(pkgPath string) bool {
	return deterministicPkgs[internalSegment(pkgPath)]
}

// internalSegment returns the first path element under clip/internal/, or ""
// for any other package. Test-variant suffixes ("pkg [pkg.test]") are
// ignored.
func internalSegment(pkgPath string) string {
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	rest, ok := strings.CutPrefix(pkgPath, "clip/internal/")
	if !ok {
		return ""
	}
	seg, _, _ := strings.Cut(rest, "/")
	return seg
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Directives, MapOrder, WallClock, FloatSum, HotMap}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	all := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		all[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := all[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies each analyzer to one loaded package and returns the
// diagnostics sorted by position. files are the analyzed (non-test) files;
// allFiles adds the test files, whose directives count too.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files, allFiles []*ast.File,
	pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	dirs := newDirectiveIndex(fset, allFiles)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a, Fset: fset, Files: files,
			Pkg: pkg, TypesInfo: info, dirs: dirs,
			report: func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
