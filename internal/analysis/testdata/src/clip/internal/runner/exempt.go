// Package runner is outside the determinism contract (it orchestrates
// goroutines; its reductions are re-asserted where they land). maporder,
// wallclock and floatsum must stay silent here, and the other analyzers
// have nothing to find.
package runner

import "time"

func free(m map[string]float64) float64 {
	_ = time.Now() // presentation-layer territory: not flagged here
	var sum float64
	for _, v := range m { // not flagged: package is exempt
		sum += v
	}
	return sum
}
