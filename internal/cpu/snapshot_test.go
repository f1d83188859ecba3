package cpu

import (
	"testing"

	"clip/internal/snapshot"
)

// TestCoreSnapshotManifest: every Core field is either visited by State or
// deliberately not; a new field fails here until it is declared.
func TestCoreSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(Core{}),
		[]string{
			"gen", // the stream position only
			"win", // whether the zero-copy window was still live
			"ibuf", "ipos",
			"validW", "doneW", "issuedW", "chainW", "pendW", "readyW",
			"ipCol", "addrCol", "stallCol", "opCol", "servedCol", "depCol", "childCol",
			"head", "tail", "count", "pendHead", "pendLen", "readyCount",
			"cycle", "fetchStallUntil", "budget", "retiredTotal", "finishCycle",
			"outstanding", "lastLoadSlot",
			"wheel", "overflow", "overflowMin", "wheelLive", "earliestWheel", "wake",
			"bp", "BranchHist", "CritHist", "lastBlock", "stats",
		},
		[]string{
			// From config: wiring and geometry set by New and the owner, and
			// buffers consumed within one call.
			"cfg", "id", "port", "robSize", "staller",
			"onFinished", "fetchCheck", "onLoad", "onRetire",
			"priv", "reqBuf", "loadEv", "retireEv",
			// Memo: the issue-stall verdict, marked stale by a load so one real
			// Tick re-derives it.
			"stall", "refused", "refusal",
		})
}
