package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// Directives lints the //clipvet: annotations the other analyzers read: an
// unknown directive name (a typo silently disables the check it was meant to
// configure), or a function-level directive (slab) that is not attached to a
// function declaration and therefore scopes nothing.
var Directives = &Analyzer{
	Name: "directives",
	Doc: "lints //clipvet: annotations: unknown directive names and the " +
		"function-level slab directive not attached to a function declaration",
	Run: runDirectives,
}

// knownDirectives is the complete annotation vocabulary; funcDirectives are
// the ones that must sit on a function declaration to mean anything.
var (
	knownDirectives = map[string]bool{
		"orderfree": true, "floatorder": true, "hotmap": true, "slabok": true, "slab": true,
	}
	funcDirectives = map[string]bool{"slab": true}
)

func runDirectives(pass *Pass) error {
	// Lines on which a function declaration may claim a directive: the
	// declaration's own line and the line above it (HasDirective's window).
	declLines := map[string]map[int]bool{}
	claim := func(pos token.Pos) {
		p := pass.Fset.Position(pos)
		m := declLines[p.Filename]
		if m == nil {
			m = map[int]bool{}
			declLines[p.Filename] = m
		}
		m[p.Line] = true
		m[p.Line-1] = true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				claim(n.Pos())
			case *ast.FuncLit:
				claim(n.Pos())
			}
			return true
		})
	}

	// Deterministic iteration over the directive index.
	var fnames []string
	for fname := range pass.dirs.lines {
		fnames = append(fnames, fname)
	}
	sort.Strings(fnames)
	for _, fname := range fnames {
		lines := pass.dirs.lines[fname]
		var nums []int
		for l := range lines {
			nums = append(nums, l)
		}
		sort.Ints(nums)
		for _, l := range nums {
			for _, d := range lines[l] {
				if !d.pos.IsValid() || !inFiles(pass, d.pos) {
					continue
				}
				if !knownDirectives[d.name] {
					pass.Reportf(d.pos,
						"unknown clipvet directive //clipvet:%s — a typo here silently "+
							"disables the check it was meant to configure (known: orderfree, "+
							"floatorder, hotmap, slabok, slab)", d.name)
					continue
				}
				if funcDirectives[d.name] && !declLines[fname][l] {
					pass.Reportf(d.pos,
						"//clipvet:%s must be attached to a function declaration (same "+
							"line or the line above) — here it scopes nothing", d.name)
				}
			}
		}
	}
	return nil
}

// inFiles reports whether pos falls inside one of the analyzed (non-test)
// files: test files carry want-comments and are exempt.
func inFiles(pass *Pass, pos token.Pos) bool {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return true
		}
	}
	return false
}
