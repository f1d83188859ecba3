package cpu

import (
	"errors"
	"strings"
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/trace"
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
			"ipCol", "addrCol", "stallCol", "doneAt", "opCol", "servedCol", "depCol", "childCol",
			"head", "tail", "count", "pendHead", "pendLen", "readyCount",
			"cycle", "fetchStallUntil", "budget", "retiredTotal", "finishCycle",
			"outstanding", "lastLoadSlot",
			"wake",
			"bp", "BranchHist", "CritHist", "lastBlock", "stats",
		},
		[]string{
			// From config: wiring and geometry set by New and the owner, and
			// buffers consumed within one call.
			"cfg", "id", "port", "robSize", "staller",
			"onFinished", "fetchCheck", "onLoad", "onRetire",
			"priv", "reqBuf", "loadEv", "retireEv",
			// Rebuilt: the timing wheel's chains and bounds, refiled by a load
			// from doneAt over the valid, un-done non-load slots.
			"wheelNext", "wheelHead", "overflowHead", "overflowLive", "overflowMin",
			"wheelLive", "earliestWheel",
			// Memo: the issue-stall verdict, marked stale by a load so one real
			// Tick re-derives it.
			"stall", "refused", "refusal",
		})
}

// TestCoreIbufRemainderBounded: the only instruction list an image may carry
// is the unconsumed tail of a private batch, so a loader sizes nothing past
// ibufBatch and accepts no remainder at all beside a live shared window —
// however many bytes of stream a hostile image offers to back its count.
func TestCoreIbufRemainderBounded(t *testing.T) {
	for _, tc := range []struct {
		name      string
		winActive bool
		count     int
		want      string
	}{
		{"batch+1", false, ibufBatch + 1, "at most 4096"},
		{"window live", true, 1, "at most 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := trace.Shared(trace.Config{
				Name:           "ibuf-bound",
				Sites:          []trace.SiteSpec{{Class: trace.PatStream, StrideLines: 1, Weight: 1}},
				FootprintLines: 64, LoadFrac: 0.1, ExecLatMean: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(0, DefaultConfig(), gen, &skipMem{latency: 1, level: mem.LevelL1}, 10)
			if err != nil {
				t.Fatal(err)
			}
			// A replay at position 0 with no continuation, then the window
			// flag, the count, and zeroed records enough to back it.
			w := snapshot.NewWriter()
			w.U8(1)
			w.Int(0)
			w.Bool(false)
			w.Bool(tc.winActive)
			w.Int(tc.count)
			for i := 0; i < tc.count*instrBytes; i++ {
				w.U8(0)
			}
			img, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			r, err := snapshot.NewReader(img)
			if err != nil {
				t.Fatal(err)
			}
			c.State(r.Coder())
			if err := r.Err(); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "cpu: ibuf") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("count %d, window live %t: err = %v, want ErrCorrupt at cpu: ibuf (%s)", tc.count, tc.winActive, err, tc.want)
			}
		})
	}
}
