package dram

import (
	"testing"

	"clip/internal/snapshot"
)

// TestDRAMSnapshotManifest: every controller field is either visited by State
// or deliberately not; a new field fails here until it is declared.
func TestDRAMSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, DRAM{},
		[]string{"chans", "cycle", "stats"},
		[]string{
			// From config: wiring, watermarks, and scratch rebuilt from the
			// queue columns on every schedule attempt or consumed in one call.
			"cfg", "onResp", "onDequeue", "resp", "eligW", "rhitW", "dmndW",
			"drainHi", "drainLo", "everyCycle",
			// Memo: the channel of the line Issue last refused (a cache of a
			// pure function of the address) and the scheduler's own effort
			// counters.
			"refusedLine", "refusedCh", "work",
		})
}

// TestChannelSnapshotManifest: queues by content, banks, bus and refresh
// timing, the utilization epoch.
func TestChannelSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, channel{},
		[]string{
			"rdReq", "rdArrived", "rdRow", "rdBk", "wrRow", "wrBk", "banks",
			"busFreeAt", "nextRefresh", "refreshEnd", "draining",
			"utilWindow", "utilCycles", "recentUtil", "epochCycles",
		},
		[]string{
			// From config.
			"id",
			// Memo: the dequeue epochs watchers compare afresh, and the
			// schedule deadlines, rebuilt from the restored queues and banks.
			"rdPops", "wrPops", "rdFree", "wrFree",
		})
}

// TestBankSnapshotManifest: the per-bank queue counts go out as their sum, a
// check on the counts a load rebuilds from the queues.
func TestBankSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, bank{},
		[]string{"openRow", "busyUntil", "rdQueued", "wrQueued"}, nil)
}
