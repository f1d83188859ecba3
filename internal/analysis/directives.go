package analysis

import (
	"go/token"
	"sort"
)

// Directives lints the //clipvet: annotations the other analyzers read: an
// unknown directive name (a typo silently disables the check it was meant to
// configure).
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "lints //clipvet: annotations: unknown directive names",
	Run:  runDirectives,
}

// knownDirectives is the complete annotation vocabulary.
var knownDirectives = map[string]bool{"orderfree": true, "floatorder": true, "hotmap": true}

func runDirectives(pass *Pass) error {
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
				if d.pos.IsValid() && inFiles(pass, d.pos) && !knownDirectives[d.name] {
					pass.Reportf(d.pos,
						"unknown clipvet directive //clipvet:%s — a typo here silently "+
							"disables the check it was meant to configure (known: orderfree, "+
							"floatorder, hotmap)", d.name)
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
