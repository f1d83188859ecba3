package mem

import "testing"

type epochSink struct {
	epoch *uint64
}

func (s epochSink) StallEpoch(*Request) *uint64 { return s.epoch }
func (epochSink) Refused(*Request, uint64)      {}

// TestWatchHoldsUntilEpochMoves: a Watch holds exactly from an armed refusal
// until the sink's epoch advances; no sink, or a sink that wants the retry
// kept up, yields a Watch that never holds.
func TestWatchHoldsUntilEpochMoves(t *testing.T) {
	req := &Request{}
	if (Watch{}).Holds() || WatchRefusal(nil, req).Holds() || WatchRefusal(epochSink{}, req).Holds() {
		t.Fatal("a watch with nothing to watch holds")
	}
	epoch := uint64(41)
	w := WatchRefusal(epochSink{&epoch}, req)
	if !w.Holds() {
		t.Fatal("armed watch does not hold")
	}
	epoch++
	if w.Holds() {
		t.Fatal("watch still holds after the epoch moved")
	}
	if again := WatchRefusal(epochSink{&epoch}, req); !again.Holds() {
		t.Fatal("re-armed watch does not hold at the new epoch")
	}
}
