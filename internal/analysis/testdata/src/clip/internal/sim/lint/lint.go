// Package lint exercises the directive linter: a misspelled directive would
// otherwise silently disable the check it was meant to configure.
package lint

//clipvet:orderfre commutative count // want "unknown clipvet directive"
func Misspelled() {}

// hotpath, allocok, sink, tilephase, staged, serial, slab and slabok are not
// directives: an annotation left over from when they were is reported
// instead of silently doing nothing.
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

//clipvet:slab // want "unknown clipvet directive"
func deliver(slab []int) *int {
	//clipvet:slabok read before the next tick // want "unknown clipvet directive"
	return &slab[0]
}

// Known directives pass.
func uses(m map[string]int) int {
	n := 0
	//clipvet:orderfree commutative count
	for range m {
		n++
	}
	return n
}
