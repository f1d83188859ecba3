package trace

import (
	"bytes"
	"errors"
	"fmt"
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

// seekConfig is a stream no other test shares, so its window starts cold.
func seekConfig(name string) Config {
	return Config{
		Name: name,
		Sites: []SiteSpec{
			{Class: PatStream, StrideLines: 1, Weight: 2},
			{Class: PatChase, Weight: 1},
		},
		FootprintLines: 4096, LoadFrac: 0.3, StoreFrac: 0.05, BranchFrac: 0.1,
		BranchMispredictRate: 0.05, ExecLatMean: 2, Seed: 11,
	}
}

func saveGen(t *testing.T, g Generator, unread int) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	State(w.Coder(), g, unread)
	img, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func loadGen(t *testing.T, g Generator, img []byte) error {
	t.Helper()
	r, err := snapshot.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	State(r.Coder(), g, 0)
	return r.Done()
}

// TestReplaySeek: a replay's image is the consumer's position — what it still
// holds of its last Window is subtracted — and loading seeks there by
// publishing whole chunks of a cold window, whatever the position: inside a
// chunk, on a chunk edge, at the window's edge, and past it with a
// continuation. The restored view then yields the stream from that position,
// and saves as the same bytes.
func TestReplaySeek(t *testing.T) {
	for i, pos := range []int{0, 1, sharedChunk - 1, sharedChunk, sharedChunk + 1, 10_000, sharedWindow, sharedWindow + 777} {
		// The reference stream, decoded privately.
		cfg := seekConfig(fmt.Sprintf("seek-%d", i))
		ref := MustNew(cfg)
		for k := 0; k < pos; k++ {
			ref.Next()
		}

		// The saving view: borrow windows as a core does, stop with the
		// position inside the last one (or, past the window, draw privately).
		src, err := Shared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := src.(*Replay)
		consumed, unread := 0, 0
		for consumed < pos {
			w := a.Window()
			if len(w) == 0 {
				for ; consumed < pos; consumed++ {
					a.Next()
				}
				break
			}
			consumed += len(w)
			if consumed > pos {
				unread, consumed = consumed-pos, pos
			}
		}
		img := saveGen(t, a, unread)

		// A fresh view over a cold window of the same stream.
		cold := cfg
		cold.Name += "-cold"
		dst, err := Shared(cold)
		if err != nil {
			t.Fatal(err)
		}
		b := dst.(*Replay)
		if err := loadGen(t, b, img); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		published, inWindow := 0, min(pos, sharedWindow)
		if p := b.st.pub.Load(); p != nil {
			published = len(*p)
		}
		if published < inWindow || published >= inWindow+sharedChunk || published%sharedChunk != 0 {
			t.Fatalf("pos %d: seek published %d instructions, want the whole chunks that cover it", pos, published)
		}
		if again := saveGen(t, b, 0); !bytes.Equal(again, img) {
			t.Fatalf("pos %d: the restored view saves differently", pos)
		}
		for k := 0; k < 3*sharedChunk; k++ {
			if want, got := ref.Next(), b.Next(); want != got {
				t.Fatalf("pos %d: instruction %d after the seek is %+v, want %+v", pos, k, got, want)
			}
		}
	}
}

// TestReplaySeekRefusesContinuationInsideWindow: a continuation exists only
// at the window's edge; an image that claims one elsewhere is corrupt, not a
// nil dereference.
func TestReplaySeekRefusesContinuationInsideWindow(t *testing.T) {
	g, err := Shared(seekConfig("seek-hostile"))
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter()
	w.U8(genKindReplay)
	w.Int(100)
	w.Bool(true)
	img, _ := w.Bytes()
	if err := loadGen(t, g, img); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
