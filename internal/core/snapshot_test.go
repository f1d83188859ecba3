package core

import (
	"testing"

	"clip/internal/snapshot"
)

// TestCLIPSnapshotManifest: every CLIP field, and every field of a filter
// and a predictor entry, is either visited by State or deliberately not.
func TestCLIPSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(CLIP{}),
		[]string{
			"filter", "pred", "utilValid", "utilLine", "utilTrig", "utilPos",
			"windowMisses", "windowAccesses", "windowStart", "apcHistory",
			"curBranchHist", "curCritHist", "ipSeen", "stats",
		},
		[]string{
			// From config.
			"cfg",
		})
	snapshot.CheckManifest(t, snapshot.MustStruct(filterEntry{}),
		[]string{"valid", "tag", "critCount", "hitCount", "issueCount", "critAcc", "explored"}, nil)
	snapshot.CheckManifest(t, snapshot.MustStruct(predEntry{}),
		[]string{"valid", "tag", "counter", "nru"}, nil)
}
