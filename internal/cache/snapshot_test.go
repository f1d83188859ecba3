package cache

import (
	"testing"

	"clip/internal/snapshot"
)

// TestCacheSnapshotManifest: every Cache field is either visited by State or
// deliberately not; a new field fails here until it is declared.
func TestCacheSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, Cache{},
		[]string{
			"slab", "policy", "inQ", "wbQ",
			"mshrValid", "mshrPF", "mshrLine", "mshrFirst", "mshrPfReq",
			// Each MSHR's waiter chain, as a count and its entries.
			"waiters", "waitHead", "waitTail",
			"respQ", "cycle", "stats",
		},
		[]string{
			// From config: geometry, wiring, views into slab, and buffers
			// consumed within one call.
			"cfg", "id", "lower", "shift", "staller", "arena",
			"tags", "trigger", "dirtyBits", "pfBits", "validBits",
			"onResp", "onAccess", "onPFEvict", "down", "accessEv",
			// The pool's free chain: a load frees the whole pool and parks
			// the saved waiters afresh.
			"waitFree",
			// Memo: the sleep protocol. A load drops the verdicts, so a cache
			// restored asleep takes one real Tick and re-arms; pops is an
			// epoch its watchers, restored alongside, compare afresh.
			"pops", "headMSHR", "headLow", "wbLow",
		})
}

// TestPolicySnapshotManifest: the two slabs carry every mutable column.
func TestPolicySnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, Policy{},
		[]string{"kind", "words", "clock", "bytesSlab", "mjTable", "probe"},
		[]string{
			// From config: geometry and the column views into the slabs.
			"ways", "stamp", "ref", "rrpv", "sig", "reused",
		})
}
