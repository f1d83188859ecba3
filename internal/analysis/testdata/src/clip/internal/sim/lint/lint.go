// Package lint exercises the directive linter: a misspelled directive or a
// function directive attached to nothing would otherwise silently disable
// the check it was meant to configure.
package lint

//clipvet:slb slab kernel // want "unknown clipvet directive"
func Misspelled() {}

// Good is correctly scoped: line-above attachment binds.
//
//clipvet:slab
func Good() {}

//clipvet:slab // want "must be attached to a function declaration"
var Phase = 3

// hotpath, allocok, sink, tilephase, staged and serial are not directives:
// an annotation left over from when they were is reported instead of
// silently doing nothing.
//
//clipvet:hotpath // want "unknown clipvet directive"
func Tick() {}

func grow(s []int) []int {
	return append(s, 1) //clipvet:allocok amortized // want "unknown clipvet directive"
}

func staged(m map[string]int) {
	//clipvet:staged commit-phase code // want "unknown clipvet directive"
	m["k"]++
}

// Function literals claim their declaration lines like named functions do.
//
//clipvet:slab
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
