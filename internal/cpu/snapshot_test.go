package cpu

import (
	"bytes"
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
	snapshot.CheckManifest(t, Core{},
		[]string{
			// Where the batch starts — gen's position until one is filled, b's
			// mark after — and how much of it is dispatched.
			"gen", "b", "ipos",
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
			"reqBuf", "loadEv", "retireEv",
			// Rebuilt: the batch, filled at the first dispatch after a load.
			"ibuf",
			// Memo: the issue-stall verdict, marked stale by a load so one real
			// Tick re-derives it.
			"stall", "refused", "refusal",
		})
}

// batchTrace is the stream the batch tests run: loads, stores, branches and
// ALU work, so dispatch stalls and redirects on the way through a batch.
var batchTrace = trace.Config{
	Name: "batch",
	Sites: []trace.SiteSpec{
		{Class: trace.PatStream, StrideLines: 1, Weight: 2},
		{Class: trace.PatChase, Weight: 1},
		{Class: trace.PatMixed, StrideLines: 1, Weight: 1},
	},
	FootprintLines: 4096, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
	BranchMispredictRate: 0.05, MixedTakenProb: 0.5, ChaseChainFrac: 0.5, ExecLatMean: 2,
}

// batchCore is a one-wide core over a fresh cursor of batchTrace, so dispatch
// moves through a batch at most one instruction a cycle and a save can land
// on every offset.
func batchCore(t *testing.T) (*Core, *skipMem) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IssueWidth = 1
	fm := &skipMem{latency: 3, level: mem.LevelL2}
	c, err := New(0, cfg, trace.MustNew(batchTrace), fm, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = c
	return c, fm
}

func saveCore(t *testing.T, c *Core) []byte {
	t.Helper()
	w := snapshot.NewSaver(0)
	c.State(w)
	img, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func loadCore(t *testing.T, c *Core, img []byte) error {
	t.Helper()
	r := newLoader(t, img)
	c.State(r)
	return r.Done()
}

func newLoader(t *testing.T, img []byte) *snapshot.Coder {
	t.Helper()
	r, err := snapshot.NewLoader(img)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCoreIbufRemainderBounded: an image says how many instructions of its
// batch the core had dispatched, and a loader refuses a count outside
// [0, ibufBatch) — a spent batch saves as the start of the next — instead of
// regenerating a batch and skipping past its end.
func TestCoreIbufRemainderBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		ipos int
	}{
		{"batch+1", ibufBatch + 1},
		{"spent batch", ibufBatch},
		{"negative", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := batchCore(t)
			c.ipos = tc.ipos // nothing is filled yet, so the save writes it as it is
			fresh, _ := batchCore(t)
			err := loadCore(t, fresh, saveCore(t, c))
			if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "cpu: snapshot dispatched") {
				t.Fatalf("ipos %d: err = %v, want ErrCorrupt at cpu: snapshot dispatched", tc.ipos, err)
			}
		})
	}
}

// TestCoreRestoresMidBatch: a core saved having dispatched any number of its
// batch's instructions — none, every offset inside the batch, all of them —
// restores, without an allocation, into a fresh core whose buffer stays
// empty, and saves as the image it loaded until its first dispatch, which
// regenerates the batch at the saved position; from there it runs in
// lockstep with the core it was saved from, across its next refill, and
// ends in the same image.
func TestCoreRestoresMidBatch(t *testing.T) {
	const lockstep = ibufBatch + 200
	for k := 0; k <= ibufBatch; k++ {
		ref, fm := batchCore(t)
		cy := uint64(0)
		for k > 0 && ref.ipos < k {
			ref.Tick(cy)
			fm.tick(cy)
			cy++
		}
		img := saveCore(t, ref)

		got, gm := batchCore(t)
		gm.inflight = append(gm.inflight, fm.inflight...) // what the memory system saves
		// AllocsPerRun loads twice, the first time as its warm-up.
		loads, next := [2]*snapshot.Coder{newLoader(t, img), newLoader(t, img)}, 0
		if n := testing.AllocsPerRun(1, func() { got.State(loads[next]); next++ }); n != 0 {
			t.Fatalf("offset %d: the load made %v allocations", k, n)
		}
		for _, r := range loads {
			if err := r.Done(); err != nil {
				t.Fatalf("offset %d: %v", k, err)
			}
		}
		if len(got.ibuf) != 0 {
			t.Fatalf("offset %d: the load filled a batch", k)
		}
		if again := saveCore(t, got); !bytes.Equal(again, img) {
			t.Fatalf("offset %d: the restored core saves differently before it dispatches", k)
		}
		for end := cy + lockstep; cy < end; cy++ {
			ref.Tick(cy)
			fm.tick(cy)
			got.Tick(cy)
			gm.tick(cy)
			if want, have := observeCore(ref), observeCore(got); want != have || ref.ipos != got.ipos {
				t.Fatalf("offset %d, cycle %d: restored core diverged:\n got %+v (ipos %d)\nwant %+v (ipos %d)",
					k, cy, have, got.ipos, want, ref.ipos)
			}
		}
		if !bytes.Equal(saveCore(t, got), saveCore(t, ref)) {
			t.Fatalf("offset %d: the restored core's image differs after %d cycles in lockstep", k, lockstep)
		}
	}
}
