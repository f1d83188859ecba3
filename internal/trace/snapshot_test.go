package trace

import (
	"testing"

	"clip/internal/snapshot"
)

// TestGenSnapshotManifest: a generator's shape is a pure function of its
// Config; only the stream position is state.
func TestGenSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(gen{}),
		[]string{"rng", "pc", "emit", "inAltPhase", "sites"},
		[]string{
			// From config.
			"cfg", "prog", "farBase", "chaseTab", "siteLines",
		})
	snapshot.CheckManifest(t, snapshot.MustStruct(siteState{}),
		[]string{"cursor", "deltaIdx", "chaseAt", "takenState", "wordRep", "rowLeft"},
		[]string{
			// From config.
			"spec", "ip", "guardIP", "base", "deltas",
		})
}

// TestReplaySnapshotManifest: a replay is its position in the shared window
// and, past it, a private continuation.
func TestReplaySnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(Replay{}),
		[]string{"pos", "cont"},
		[]string{
			// From config: the shared stream and this view's copy of its
			// published window, which a load extends by seeking.
			"name", "prog", "st",
		})
}
