package core

import (
	"bytes"
	"errors"
	"testing"

	"clip/internal/snapshot"
)

// TestCLIPSnapshotManifest: every CLIP field, and every field of a filter
// and a predictor entry, is either visited by State or deliberately not.
func TestCLIPSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, CLIP{},
		[]string{
			"filter", "pred", "utilValid", "utilLine", "utilTrig", "utilPos",
			"windowMisses", "windowAccesses", "windowStart", "apcHistory",
			"curBranchHist", "curCritHist", "ipSeen", "stats",
		},
		[]string{
			// From config.
			"cfg",
		})
	snapshot.CheckManifest(t, filterEntry{},
		[]string{"valid", "tag", "critCount", "hitCount", "issueCount", "critAcc", "explored"}, nil)
	snapshot.CheckManifest(t, predEntry{},
		[]string{"valid", "tag", "counter", "nru"}, nil)
}

// TestCLIPEntryWords: a filter or predictor entry goes out as one packed
// word. Every field at its maximum survives the round trip, and a word
// whose field is wider than Table 2 allows (a tag above 63, a counter above
// 7) is refused with ErrCorrupt: the byte-per-field walk it replaced
// accepted any byte. The images differ from a fresh CLIP's only in the
// first word of each table.
func TestCLIPEntryWords(t *testing.T) {
	c := MustNew(DefaultConfig())
	s := snapshot.NewSaver(0)
	c.State(s)
	fresh, err := s.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// head encodes both tables, all invalid but for their first words.
	head := func(filter, pred uint64) []byte {
		w := snapshot.NewSaver(0)
		fw, pw := make([]uint64, len(c.filter)), make([]uint64, len(c.pred))
		fw[0], pw[0] = filter, pred
		w.Fixed("filter", len(fw))
		w.U64s(fw)
		w.Fixed("pred", len(pw))
		w.U64s(pw)
		b, _ := w.Bytes()
		return b
	}
	base := head(0, 0)
	if !bytes.HasPrefix(fresh, base) {
		t.Fatal("a fresh CLIP's image does not start with its two all-invalid tables")
	}
	rest := fresh[len(base):]

	maxFilter := filterEntry{valid: true, tag: 63, critCount: critCountMax, hitCount: 63,
		issueCount: 63, critAcc: true, explored: exploreQuota}
	maxPred := predEntry{valid: true, tag: 63, counter: counterMax, nru: true}
	for _, tc := range []struct {
		name         string
		filter, pred uint64
		ok           bool
	}{
		{"every field at its maximum", maxFilter.word(), maxPred.word(), true},
		{"filter tag 64", (&filterEntry{valid: true, tag: 64}).word(), 0, false},
		{"predictor counter 8", 0, (&predEntry{valid: true, counter: counterMax + 1}).word(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := snapshot.NewLoader(append(head(tc.filter, tc.pred), rest...))
			if err != nil {
				t.Fatal(err)
			}
			got := MustNew(DefaultConfig())
			got.State(l)
			switch err := l.Done(); {
			case !tc.ok && !errors.Is(err, snapshot.ErrCorrupt):
				t.Fatalf("err %v, want ErrCorrupt", err)
			case tc.ok && err != nil:
				t.Fatal(err)
			case tc.ok && (got.filter[0] != maxFilter || got.pred[0] != maxPred):
				t.Fatalf("loaded %+v and %+v, want %+v and %+v", got.filter[0], got.pred[0], maxFilter, maxPred)
			}
		})
	}
}
