package prefetch

import (
	"testing"

	"clip/internal/snapshot"
)

// TestBertiSnapshotManifest: the column slab goes out verbatim; every
// history ring, delta set and per-row counter is a view into it.
func TestBertiSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(Berti{}),
		[]string{
			"aggr", // the aggressiveness level throttlers move
			"rows", "slab", "nextRow", "latencyEst",
		},
		[]string{
			// From config: the column views into slab, and scratch consumed
			// within one Train.
			"histLine", "histCycle", "deltaVal", "deltaHits",
			"histLen", "histPos", "nDeltas", "accesses",
			"scratchTop", "scratchOut",
		})
}
