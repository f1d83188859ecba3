package noc

import (
	"testing"

	"clip/internal/snapshot"
)

// TestMeshSnapshotManifest: every Mesh field is either visited by State or
// deliberately not; a new field fails here until it is declared.
func TestMeshSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(Mesh{}),
		[]string{
			"pkts", "free", "links", "active", "pending",
			"cycle", "stats", "live", "linkActive",
		},
		[]string{
			// From config: geometry and the delivery sink the owner registers.
			"cfg", "onDeliver",
			// Memo: the deadline wheel and the grant bitmap, rebuilt from the
			// restored links; work counts the simulator, not the mesh.
			"grant", "wheel", "work",
		})
}

// TestLinkSnapshotManifest: a busy link's deadline goes out as the
// flit-cycles its packet still needs.
func TestLinkSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(link{}),
		[]string{"vcs", "rrHi", "rrLo", "vcMask", "cur", "doneAt", "hiN", "loN", "arb"},
		[]string{
			// From config.
			"hiVCs",
			// Memo: State settles LinkBusy through the current cycle before
			// it saves, so a restored busy link owes from the next one.
			"busyFrom",
		})
}

// TestPacketSnapshotManifest: a closure cannot be saved; State refuses a
// slab that still holds one.
func TestPacketSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(packet{}),
		[]string{"at", "dst", "flits", "high", "payload", "kind", "sent", "resp"},
		[]string{"deliver"})
}
