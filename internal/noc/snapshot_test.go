package noc

import (
	"errors"
	"testing"

	"clip/internal/snapshot"
)

// TestMeshSnapshotManifest: every Mesh field is either visited by State or
// deliberately not; a new field fails here until it is declared.
func TestMeshSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, Mesh{},
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
	snapshot.CheckManifest(t, link{},
		[]string{"vcs", "rrHi", "rrLo", "vcMask", "cur", "doneAt", "hiN", "loN", "arb"},
		[]string{
			// From config.
			"hiVCs",
			// Memo: State settles LinkBusy through the current cycle before
			// it saves, so a restored busy link owes from the next one.
			"busyFrom",
		})
}

// TestPacketSnapshotManifest: a packet is all state.
func TestPacketSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, packet{},
		[]string{"at", "dst", "flits", "high", "kind", "sent", "resp"}, nil)
}

// TestMeshRefusesOffMeshPacket: a restored packet routes by its nodes, so
// one whose node lies off the mesh, or that has no flits, is refused at
// load instead of indexing past the links at its next hop.
func TestMeshRefusesOffMeshPacket(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(*packet)
		ok     bool
	}{
		{"undamaged", func(*packet) {}, true},
		{"destination off the mesh", func(p *packet) { p.dst = 16 }, false},
		{"negative position", func(p *packet) { p.at = -1 }, false},
		{"no flits", func(p *packet) { p.flits = 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(DefaultConfig(16))
			recorder(m)
			send(m, 0, 15, FlitsPerData, true, 0)
			tc.damage(&m.pkts[0])
			w := snapshot.NewSaver(0)
			m.State(w)
			img, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			l, err := snapshot.NewLoader(img)
			if err != nil {
				t.Fatal(err)
			}
			MustNew(DefaultConfig(16)).State(l)
			if err := l.Done(); tc.ok != (err == nil) || !tc.ok && !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("loading: %v", err)
			}
		})
	}
}
