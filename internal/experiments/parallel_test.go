package experiments

import (
	"testing"

	"clip/internal/runner"
	"clip/internal/sim"
	"clip/internal/workload"
)

// TestEngineSharesBaselinesAcrossVariants checks the dedup guarantee: two
// variants over the same mixes share alone-IPC and no-prefetch baseline
// simulations instead of re-running them.
func TestEngineSharesBaselinesAcrossVariants(t *testing.T) {
	runner.ResetShared()
	sc := micro()
	sc.Workers = 4
	e := newEngine(sc)
	mixes := homMixes(sc)[:2]
	b := &batch{ch: 8, mixes: mixes, norm: true,
		arms: []workload.Variant{pfVariant("berti"), pfVariant("stride")}}
	e.submit(b)
	if err := e.wait(); err != nil {
		t.Fatal(err)
	}
	for a := range b.arms {
		if ws := meanOf(wsOf(a))(b.out); ws <= 0 {
			t.Fatalf("degenerate mean for %s: %v", b.arms[a].Name, ws)
		}
	}
	st := runner.Shared().Stats()
	// Per mix: 1 alone (homogeneous: one benchmark), 1 baseline, 2 variants.
	// The two baselines and two alones must NOT be duplicated per variant.
	want := uint64(len(mixes)) * 4
	if st.Executions != want {
		t.Fatalf("executed %d simulations, want %d (baselines/alone runs duplicated?)", st.Executions, want)
	}
}

// TestReportSubmitsSharedBatchOnce checks the driver's half of the dedup
// guarantee: cells across rows and tables that read one batch run its
// simulations once. A second submission would reach the run cache as hits.
func TestReportSubmitsSharedBatchOnce(t *testing.T) {
	runner.ResetShared()
	sc := micro()
	sc.Workers = 2
	b := &batch{ch: 8, mixes: homMixes(sc)[:1], norm: true,
		arms: []workload.Variant{pfVariant("berti")}}
	ipc := meanOf(resOf(0, (*sim.Result).MeanIPC))
	rep, err := report(sc, "shared", "one batch, four cells",
		table{title: "a", headers: []string{"row", "ws", "ipc"},
			rows: [][]any{{"x", cell{"ws", b, meanWS}, cell{"ipc", b, ipc}}}},
		table{title: "b", headers: []string{"row", "ws"},
			rows: [][]any{{"y", cell{"", b, meanWS}}, {"z", cell{"", b, meanWS}}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Values["ws"] <= 0 || rep.Values["ipc"] <= 0 || len(rep.Tables) != 2 {
		t.Fatalf("degenerate report:\n%s", rep)
	}
	// 1 alone-IPC run, 1 baseline, 1 variant; nothing served twice.
	if st := runner.Shared().Stats(); st.Executions != 3 || st.Hits != 0 {
		t.Fatalf("executions %d, hits %d; want 3 and 0", st.Executions, st.Hits)
	}
}

// TestEnginePropagatesErrors checks that a failing job surfaces through
// wait() instead of being lost on a worker goroutine.
func TestEnginePropagatesErrors(t *testing.T) {
	sc := micro()
	sc.Workers = 2
	e := newEngine(sc)
	bogus := workload.Variant{Name: "bogus", Mutate: func(c *sim.Config) {
		c.Prefetcher = "no-such-prefetcher"
	}}
	e.submit(&batch{ch: 8, mixes: homMixes(sc)[:1], arms: []workload.Variant{bogus}, norm: true})
	if err := e.wait(); err == nil {
		t.Fatal("invalid prefetcher did not surface an error")
	}
}
