package dram

import (
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// TestPropertyReadConservation: every accepted read produces exactly one
// response, in any interleaving, with refresh enabled.
func TestPropertyReadConservation(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := mem.NewPRNG(seed)
		cfg := DefaultConfig(2)
		cfg.RQ = 8
		cfg.REFI, cfg.RFC = 700, 90
		d := MustNew(cfg)
		responses := map[uint64]int{}
		d.OnResponse(func(r *mem.Response) { responses[r.Req.IP]++ })

		accepted := map[uint64]bool{}
		var cy uint64
		var id uint64
		for op := 0; op < 2000; op++ {
			addr := mem.Addr(rng.Uint64()%4096) * mem.LineBytes
			switch rng.Intn(3) {
			case 0:
				id++
				req := mem.Request{Addr: addr, IP: id, Type: mem.Load, IssueCycle: cy}
				if d.Issue(&req) {
					accepted[id] = true
				}
			case 1:
				d.Issue(&mem.Request{Addr: addr, Type: mem.Writeback, IssueCycle: cy})
			default:
				d.Issue(&mem.Request{Addr: addr, Type: mem.Prefetch, IssueCycle: cy})
			}
			d.Tick(cy)
			cy++
		}
		for readsQueued(d) > 0 {
			d.Tick(cy)
			cy++
		}
		// Responses may have DoneCycle in the future, but the callback fires
		// at schedule time in this model, so counting is complete here.
		for id := range accepted {
			if responses[id] != 1 {
				t.Fatalf("seed %d: read %d got %d responses", seed, id, responses[id])
			}
		}
	}
}

// TestPropertyBankExclusive: two back-to-back accesses to the same bank
// never overlap their bank busy windows (the second is scheduled after the
// first's access completes).
func TestPropertyBankExclusive(t *testing.T) {
	cfg := DefaultConfig(1)
	d := MustNew(cfg)
	var dones []uint64
	d.OnResponse(func(r *mem.Response) { dones = append(dones, r.DoneCycle) })
	// Same bank, different rows: guaranteed conflict.
	rowStride := uint64(banks * rowLines * mem.LineBytes)
	d.Issue(&mem.Request{Addr: 0, Type: mem.Load})
	d.Issue(&mem.Request{Addr: mem.Addr(rowStride), Type: mem.Load})
	for cy := uint64(0); cy < 2000; cy++ {
		d.Tick(cy)
	}
	if len(dones) != 2 {
		t.Fatalf("completed %d/2", len(dones))
	}
	gap := int64(dones[1]) - int64(dones[0])
	if gap < 0 {
		gap = -gap
	}
	// A row conflict costs at least RP+RCD+CAS after the first access.
	if gap < tRP {
		t.Fatalf("conflicting accesses too close: gap %d", gap)
	}
}

// refNextEvent is NextEvent derived the slow way, from the queue columns
// instead of the per-channel deadlines: the earliest cycle a Tick refreshes,
// ends a refresh, or finds a free bank under a request it would schedule
// (a write only while draining or with no read queued).
func refNextEvent(d *DRAM, now uint64) uint64 {
	next := mem.NoEvent
	for i := range d.chans {
		c := &d.chans[i]
		if d.cfg.REFI > 0 {
			nr := c.nextRefresh
			if nr == 0 {
				nr = uint64(d.cfg.REFI)
			}
			next = min(next, max(nr, now))
			if now < c.refreshEnd {
				next = min(next, c.refreshEnd)
				continue
			}
		}
		// The next Tick applies the hysteresis before it schedules.
		drain := c.draining
		if len(c.wrBk) >= d.cfg.WQ*writeWatermarkNum/writeWatermarkDen {
			drain = true
		} else if len(c.wrBk) <= d.cfg.WQ/4 {
			drain = false
		}
		for _, bk := range c.rdBk {
			next = min(next, max(c.banks[bk].busyUntil, now))
		}
		if drain || len(c.rdBk) == 0 {
			for _, bk := range c.wrBk {
				next = min(next, max(c.banks[bk].busyUntil, now))
			}
		}
	}
	return next
}

type dispatched struct {
	at, done uint64 // cycle of the dispatch, DoneCycle it was given
	id       uint64 // Request.IP
}

// lockstepTraffic drives every controller of ds with one seeded request
// stream for cycles [from, to) — phases of read pressure with starved
// prefetches (age promotion), write bursts that cross the drain watermark and
// lulls that let the queue fall below the low one — and fails on the first
// cycle any of them disagrees with ds[0] on a dispatch, the counters, the
// drain state or the horizon.
func lockstepTraffic(t *testing.T, seed uint64, ds []*DRAM, from, to uint64) {
	t.Helper()
	logs := make([][]dispatched, len(ds))
	for i, d := range ds {
		i, d := i, d
		d.OnResponse(func(r *mem.Response) {
			logs[i] = append(logs[i], dispatched{at: d.cycle, done: r.DoneCycle, id: r.Req.IP})
		})
	}
	rng := mem.NewPRNG(seed)
	// The stream depends on the cycle alone, so a run resumed from a
	// snapshot sees what the uninterrupted one saw.
	for cy := uint64(0); cy < to; cy++ {
		phase := cy / 700 % 4
		for k := 0; k < 3; k++ {
			addr := mem.Addr(rng.Uint64()%8192) * mem.LineBytes
			req := mem.Request{Addr: addr, IP: cy*4 + uint64(k), IssueCycle: cy, Type: mem.Load}
			var p float64
			switch roll := rng.Intn(10); {
			case phase == 1 && roll < 8: // write burst: past the high watermark
				req.Type, p = mem.Writeback, 0.9
			case phase == 3: // lull: both queues drain, the write queue below the low mark
				p = 0.02
			case roll < 3:
				req.Type, p = mem.Prefetch, 0.5
				req.Critical = roll == 0
				req.Owned = roll == 1
			case roll < 4:
				req.Type, p = mem.Writeback, 0.3
			default:
				p = 0.35
			}
			if !rng.Bool(p) || cy < from {
				continue
			}
			ok := ds[0].Issue(&req)
			for _, d := range ds[1:] {
				if d.Issue(&req) != ok {
					t.Fatalf("seed %d cycle %d: Issue verdicts differ", seed, cy)
				}
			}
		}
		if cy < from {
			continue
		}
		for _, d := range ds {
			d.Tick(cy)
		}
		for i, d := range ds {
			if want := refNextEvent(d, cy+1); d.NextEvent(cy+1) != want {
				t.Fatalf("seed %d cycle %d: controller %d NextEvent %d, the queues say %d", seed, cy, i, d.NextEvent(cy+1), want)
			}
			if i == 0 {
				continue
			}
			if len(logs[i]) != len(logs[0]) || (len(logs[0]) > 0 && logs[i][len(logs[i])-1] != logs[0][len(logs[0])-1]) {
				t.Fatalf("seed %d cycle %d: controller %d dispatched %+v, controller 0 %+v", seed, cy, i, logs[i], logs[0])
			}
			if *d.Stats() != *ds[0].Stats() {
				t.Fatalf("seed %d cycle %d: controller %d stats %+v, controller 0 %+v", seed, cy, i, *d.Stats(), *ds[0].Stats())
			}
			for ch := range d.chans {
				if d.chans[ch].draining != ds[0].chans[ch].draining {
					t.Fatalf("seed %d cycle %d: controller %d channel %d drain state differs", seed, cy, i, ch)
				}
			}
		}
		logs[0] = logs[0][:0]
		for i := range logs[1:] {
			logs[i+1] = logs[i+1][:0]
		}
	}
}

// TestPropertyDeadlineScheduler runs the deadline-gated scheduler against one
// that scans every queue every cycle (ScanEveryCycle): same dispatch cycle,
// same winner, same Stats, and a NextEvent that matches what the queues say.
// A third controller is restored mid-run from the gated one's snapshot: the
// deadlines are rebuilt state, so it continues in lockstep too.
func TestPropertyDeadlineScheduler(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, padc := range []bool{true, false} {
			cfg := DefaultConfig(2)
			cfg.RQ, cfg.WQ = 24, 16
			cfg.REFI, cfg.RFC = 900, 120
			cfg.PADC = padc
			cfg.CriticalPriority = seed%2 == 0
			gated, scan := MustNew(cfg), MustNew(cfg)
			scan.ScanEveryCycle()
			const split, end = 4321, 9000
			lockstepTraffic(t, seed, []*DRAM{scan, gated}, 0, split)

			w := snapshot.NewSaver(0)
			gated.State(w)
			image, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			restored := MustNew(cfg)
			r, err := snapshot.NewLoader(image)
			if err != nil {
				t.Fatal(err)
			}
			restored.State(r)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			lockstepTraffic(t, seed, []*DRAM{scan, gated, restored}, split, end)

			st, work, ref := gated.Stats(), gated.SchedulerWork(), scan.SchedulerWork()
			if st.Refreshes == 0 || st.Writes == 0 || st.PrefetchReads == 0 || st.RQFullEvents == 0 || st.WQFullEvents == 0 {
				t.Fatalf("seed %d: traffic missed a path: %+v", seed, *st)
			}
			if work.ReadFutile+work.WriteFutile != 0 {
				t.Fatalf("seed %d: %d gated schedule attempts found nothing", seed, work.ReadFutile+work.WriteFutile)
			}
			if ref.ReadFutile == 0 || ref.WriteFutile == 0 {
				t.Fatalf("seed %d: the every-cycle reference never scanned in vain: %+v", seed, ref)
			}
		}
	}
}
