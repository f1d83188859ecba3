package mem

import "testing"

type epochSink struct {
	epoch *uint64
}

func (s epochSink) StallEpoch(*Request) *uint64 { return s.epoch }
func (epochSink) Refused(*Request, uint64)      {}

// TestWatchHoldsUntilEpochMoves: a Watch holds exactly from an armed refusal
// until the sink's epoch advances, and has Moved from then on; no sink, or a
// sink that wants the retry kept up, yields a Watch that never holds and
// never moves.
func TestWatchHoldsUntilEpochMoves(t *testing.T) {
	req := &Request{}
	if (Watch{}).Holds() || WatchRefusal(nil, req).Holds() || WatchRefusal(epochSink{}, req).Holds() {
		t.Fatal("a watch with nothing to watch holds")
	}
	if (Watch{}).Moved() || WatchRefusal(nil, req).Moved() || WatchRefusal(epochSink{}, req).Moved() {
		t.Fatal("a watch with nothing to watch has moved")
	}
	epoch := uint64(41)
	w := WatchRefusal(epochSink{&epoch}, req)
	if !w.Holds() || w.Moved() {
		t.Fatal("armed watch does not hold")
	}
	epoch++
	if w.Holds() || !w.Moved() {
		t.Fatal("watch still holds after the epoch moved")
	}
	if again := WatchRefusal(epochSink{&epoch}, req); !again.Holds() {
		t.Fatal("re-armed watch does not hold at the new epoch")
	}
}
