// Package lint exercises the callgraph directive linter: a misspelled
// directive or a function directive attached to nothing would otherwise
// silently disable the check it was meant to configure.
package lint

//clipvet:hotpat hot root // want "unknown clipvet directive"
func Misspelled() {}

// Good is correctly rooted: line-above attachment binds.
//
//clipvet:hotpath
func Good() {}

//clipvet:slab // want "must be attached to a function declaration"
var Phase = 3

// tilephase, staged and serial are not directives: an annotation left over
// from when they were is reported instead of silently doing nothing.
//
//clipvet:tilephase // want "unknown clipvet directive"
func Tile() {}

func staged(m map[string]int) {
	//clipvet:staged commit-phase code // want "unknown clipvet directive"
	m["k"]++
}

//clipvet:serial runs between ticks // want "unknown clipvet directive"
func Serial() {}

// Function literals claim their declaration lines like named functions do.
//
//clipvet:hotpath
var handler = func() {}

// Statement-level directives are not function directives: no attachment
// required.
func uses(m map[string]int) int {
	n := 0
	//clipvet:orderfree commutative count
	for range m {
		n++
	}
	return n
}
