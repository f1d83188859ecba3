package trace

import (
	"bytes"
	"errors"
	"testing"

	"clip/internal/snapshot"
)

// TestGenSnapshotManifest: a cursor's program is a pure function of its
// Config; only the stream position is state.
func TestGenSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, Cursor{},
		[]string{"rng", "pc", "emit", "inAltPhase", "sites"},
		[]string{
			// From config: the shared, immutable program.
			"p",
		})
	snapshot.CheckManifest(t, siteCur{},
		[]string{"cursor", "deltaIdx", "chaseAt", "takenState", "wordRep", "rowLeft"}, nil)
}

// multiStrideConfig has a site whose delta set an image indexes.
func multiStrideConfig() Config {
	cfg := testConfig()
	cfg.Sites = append(cfg.Sites, SiteSpec{Class: PatMultiStride, StrideLines: 2, Weight: 2})
	return cfg
}

func saveCursor(t *testing.T, c *Cursor) []byte {
	t.Helper()
	w := snapshot.NewSaver(0)
	State(w, c)
	img, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func loadCursor(t *testing.T, c *Cursor, img []byte) error {
	t.Helper()
	r, err := snapshot.NewLoader(img)
	if err != nil {
		t.Fatal(err)
	}
	State(r, c)
	return r.Done()
}

// TestCursorState: a cursor saved anywhere in its stream restores into a
// fresh cursor of the same Config, which continues the stream from there and
// saves as the same bytes.
func TestCursorState(t *testing.T) {
	cfg := multiStrideConfig()
	cfg.PhasePeriod = 5000
	src := MustNew(cfg)
	for _, pos := range []int{0, 1, 777, 6000} {
		for src.emit < uint64(pos) {
			src.Next()
		}
		img := saveCursor(t, src)
		dst := MustNew(cfg)
		if err := loadCursor(t, dst, img); err != nil {
			t.Fatalf("position %d: %v", pos, err)
		}
		if again := saveCursor(t, dst); !bytes.Equal(again, img) {
			t.Fatalf("position %d: the restored cursor saves differently", pos)
		}
		ref := *src
		for k := 0; k < 3000; k++ {
			if want, got := ref.Next(), dst.Next(); want != got {
				t.Fatalf("position %d: instruction %d after the restore is %+v, want %+v", pos, k, got, want)
			}
		}
	}
}

// TestCursorStateRefusesHostileImage: a position the program cannot index is
// corrupt, not an index-out-of-range panic at the first multi-stride load.
func TestCursorStateRefusesHostileImage(t *testing.T) {
	cfg := multiStrideConfig()
	ms := len(MustNew(cfg).p.sites) - 1 // a multi-stride site: four deltas
	for _, tc := range []struct {
		name   string
		mangle func(c *Cursor)
	}{
		{"delta index past the set", func(c *Cursor) { c.sites[ms].deltaIdx = 4 }},
		{"negative delta index", func(c *Cursor) { c.sites[ms].deltaIdx = -1 }},
		{"pc past the body", func(c *Cursor) { c.pc = len(c.p.body) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := MustNew(cfg)
			tc.mangle(bad)
			img := saveCursor(t, bad)
			if err := loadCursor(t, MustNew(cfg), img); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	// A generator that is not a Cursor has no position to save.
	w := snapshot.NewSaver(0)
	State(w, &Replay{})
	if _, err := w.Bytes(); err == nil {
		t.Fatal("a replay saved a position")
	}
}
