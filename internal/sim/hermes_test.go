package sim

import (
	"testing"

	"clip/internal/mem"
)

// TestHermesRoutesOncePerMiss drives l1Lower directly on a small Hermes
// system: each load miss is routed — and counted as a prediction — on its
// first attempt only; a refused retry repeats the route and changes nothing,
// the bypass sleeps on the direct-DRAM queue's pops and the L2 route on the
// L2's, a misprediction queues its waste read once, and a different miss
// gets a route of its own.
func TestHermesRoutesOncePerMiss(t *testing.T) {
	cfg := stallBase(stallMix)
	cfg.Hermes = true
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo := &l1Lower{s: s, core: 0}
	h := s.mech[0].hermes
	st := &s.stage[0]
	load := func(ip uint64, line int) mem.Request {
		return mem.Request{Addr: mem.Addr(0x1000+line) * mem.LineBytes, IP: ip, Type: mem.Load, ROBIndex: int16(line)}
	}
	const offIP, onIP = 0x4000, 0x8000
	bypassA, wasteB, onChipC := load(offIP, 1), load(offIP, 2), load(onIP, 3)
	for _, r := range []mem.Request{bypassA, wasteB} {
		for k := 0; k < 8; k++ {
			h.Train(r.IP, r.Addr, mem.LevelDRAM, false)
		}
	}
	if !h.OffChip(bypassA.IP, bypassA.Addr) || !h.OffChip(wasteB.IP, wasteB.Addr) || h.OffChip(onChipC.IP, onChipC.Addr) {
		t.Fatal("the trained predictor does not give the verdicts the test needs")
	}
	s.l2[0].Fill(&mem.Response{Req: wasteB}) // B's line is on-chip after all
	retries := func(r mem.Request, what string, epoch *uint64) {
		t.Helper()
		preds, queued := h.Stats().Predictions, st.dramQ.Len()
		if got := lo.StallEpoch(&r); got != epoch {
			t.Fatalf("%s: refused retries watch %p, want %p", what, got, epoch)
		}
		for k := 0; k < 5; k++ {
			if lo.Issue(&r) {
				t.Fatalf("%s: retry %d accepted", what, k)
			}
		}
		if h.Stats().Predictions != preds || st.dramQ.Len() != queued {
			t.Fatalf("%s: refused retries predicted %d times and queued %d direct reads, want none",
				what, h.Stats().Predictions-preds, st.dramQ.Len()-queued)
		}
	}

	// A: predicted and truly off-chip, refused by a full direct-DRAM queue.
	for st.dramQ.Len() < directDRAMDepth {
		s.pushDirect(0, load(0, 100+st.dramQ.Len()))
	}
	if lo.Issue(&bypassA) || h.Stats().Predictions != 1 || !st.route.live || !st.route.bypass {
		t.Fatalf("A: route %+v after %d predictions, want a refused bypass after 1", st.route, h.Stats().Predictions)
	}
	retries(bypassA, "A", &st.pops)
	st.dramQ.PopFront()
	st.pops++
	if !lo.Issue(&bypassA) || st.route.live || h.Stats().Predictions != 1 {
		t.Fatalf("A: not accepted once its queue had room (route %+v, %d predictions)", st.route, h.Stats().Predictions)
	}
	if e := st.dramQ.At(st.dramQ.Len() - 1); *e != bypassA {
		t.Fatalf("A: queued %+v, want its bypass read", e)
	}

	// B: predicted off-chip but on-chip, refused by a full L2 input queue.
	st.dramQ.PopFront() // room for B's waste read
	for k := 0; !s.l2[0].Full(); k++ {
		s.l2[0].Issue(&mem.Request{Addr: load(0, 200+k).Addr, Type: mem.Store, ROBIndex: -1})
	}
	if lo.Issue(&wasteB) || h.Stats().Predictions != 2 || !st.route.live || st.route.bypass {
		t.Fatalf("B: route %+v after %d predictions, want a refused L2 route after 2", st.route, h.Stats().Predictions)
	}
	if e := st.dramQ.At(st.dramQ.Len() - 1); e.Type != mem.Prefetch || e.Addr != wasteB.Addr {
		t.Fatalf("B: queued %+v, want its waste read", e)
	}
	retries(wasteB, "B", s.l2[0].StallEpoch(&wasteB))

	// C: a different miss, predicted on-chip, replaces B's route.
	if lo.Issue(&onChipC) || h.Stats().Predictions != 3 || st.route.req != onChipC || st.route.bypass {
		t.Fatalf("C: route %+v after %d predictions, want its own refused L2 route after 3", st.route, h.Stats().Predictions)
	}
	retries(onChipC, "C", s.l2[0].StallEpoch(&onChipC))
	if got := h.Stats().PredOffChip; got != 2 {
		t.Fatalf("%d off-chip predictions counted, want 2 (A and B)", got)
	}
}

// TestHermesPredictsPerMiss: over a whole run of a Hermes arm whose L1 misses
// are refused again and again — direct-DRAM queues full behind an
// eight-entry read queue — the predictor counts at most one prediction per
// L1 load miss. A loop that predicted on every refused retry counted several
// times as many.
func TestHermesPredictsPerMiss(t *testing.T) {
	arm := hermesIrrArm()
	arm.cfg.WarmupInstr = 0 // the L1's counters and the predictor's cover the same run
	s, err := arm.build(1, false)
	if err != nil {
		t.Fatal(err)
	}
	refused := false
	for maxCycles := s.MaxCycles(); s.Step(maxCycles); {
		refused = refused || routeParked(s)
	}
	res := s.collect()
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	preds, misses := res.Hermes.Predictions, res.L1.DemandMisses
	if preds == 0 || preds > misses {
		t.Fatalf("%d predictions for %d L1 load misses, want one per routed miss", preds, misses)
	}
	if !refused {
		t.Fatal("no bypass route was ever refused")
	}
}
