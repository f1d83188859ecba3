package dram

import (
	"testing"

	"clip/internal/mem"
)

func req(addr mem.Addr, ty mem.AccessType) *mem.Request {
	return &mem.Request{Addr: addr.Line(), Type: ty}
}

func drain(d *DRAM, from, to uint64) {
	for cy := from; cy < to; cy++ {
		d.Tick(cy)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(8)
	bad.Channels = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero channels accepted")
	}
	bad = DefaultConfig(8)
	bad.Transfer = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero transfer accepted")
	}
}

func TestReadCompletes(t *testing.T) {
	d := MustNew(DefaultConfig(1))
	var resps []mem.Response
	d.OnResponse(func(r *mem.Response) { resps = append(resps, *r) })
	if !d.Issue(req(0x1000, mem.Load)) {
		t.Fatal("issue refused")
	}
	drain(d, 0, 300)
	if len(resps) != 1 {
		t.Fatalf("want 1 response, got %d", len(resps))
	}
	r := resps[0]
	if r.ServedBy != mem.LevelDRAM {
		t.Fatalf("served by %v", r.ServedBy)
	}
	// First access: closed row -> RCD+CAS+Transfer = 110.
	if r.DoneCycle < 100 || r.DoneCycle > 130 {
		t.Fatalf("done cycle %d outside expected window", r.DoneCycle)
	}
}

func TestRowBufferHitFaster(t *testing.T) {
	d := MustNew(DefaultConfig(1))
	var resps []mem.Response
	d.OnResponse(func(r *mem.Response) { resps = append(resps, *r) })
	d.Issue(req(0x0, mem.Load))
	drain(d, 0, 200)
	first := resps[0].DoneCycle
	// Same bank, same row: stride = banks * lineBytes = 16*64 = 0x400.
	d.Issue(req(0x400, mem.Load))
	drain(d, 200, 400)
	second := resps[1].DoneCycle - 200
	if second >= first {
		t.Fatalf("row hit (%d) not faster than row miss (%d)", second, first)
	}
	if d.Stats().RowHits == 0 {
		t.Fatal("no row hits recorded")
	}
}

func TestChannelInterleaving(t *testing.T) {
	d := MustNew(DefaultConfig(4))
	ch0 := d.ChannelOf(0x0)
	ch1 := d.ChannelOf(0x40)
	ch2 := d.ChannelOf(0x80)
	if ch0 == ch1 || ch1 == ch2 || ch0 == ch2 {
		t.Fatalf("adjacent lines not interleaved: %d %d %d", ch0, ch1, ch2)
	}
}

// readsQueued sums the read-queue columns of every channel.
func readsQueued(d *DRAM) (n int) {
	for i := range d.chans {
		n += len(d.chans[i].rdBk)
	}
	return n
}

func TestMoreChannelsMoreThroughput(t *testing.T) {
	run := func(channels int) uint64 {
		d := MustNew(DefaultConfig(channels))
		var last uint64
		d.OnResponse(func(r *mem.Response) {
			if r.DoneCycle > last {
				last = r.DoneCycle
			}
		})
		// Stream 256 lines.
		var cy uint64
		for i := 0; i < 256; i++ {
			for !d.Issue(req(mem.Addr(i*64), mem.Load)) {
				d.Tick(cy)
				cy++
			}
		}
		for ; cy < 1000000; cy++ {
			d.Tick(cy)
			if readsQueued(d) == 0 && cy > last {
				break
			}
		}
		return last
	}
	t1, t8 := run(1), run(8)
	if t8*3 > t1 {
		t.Fatalf("8 channels (%d cycles) should be much faster than 1 (%d)", t8, t1)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// One channel moves at most one line per Transfer cycles once queued.
	d := MustNew(DefaultConfig(1))
	n := 32
	var dones []uint64
	d.OnResponse(func(r *mem.Response) { dones = append(dones, r.DoneCycle) })
	for i := 0; i < n; i++ {
		// Same row to isolate the bus constraint.
		d.Issue(req(mem.Addr(i*64), mem.Load))
	}
	drain(d, 0, 10000)
	if len(dones) != n {
		t.Fatalf("completed %d/%d", len(dones), n)
	}
	span := dones[len(dones)-1] - dones[0]
	if span < uint64((n-1)*10) {
		t.Fatalf("bus transferred faster than the 10-cycle/line ceiling: span %d", span)
	}
}

func TestRQFullBackpressureAndPrefetchDrop(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.RQ = 4
	d := MustNew(cfg)
	for i := 0; i < 4; i++ {
		if !d.Issue(req(mem.Addr(i*64), mem.Load)) {
			t.Fatalf("refused before full at %d", i)
		}
	}
	if d.Issue(req(0x4000, mem.Load)) {
		t.Fatal("demand accepted with full RQ")
	}
	if !d.Issue(req(0x8000, mem.Prefetch)) {
		t.Fatal("prefetch should be silently dropped, not refused")
	}
	if d.Stats().RQFullEvents != 2 {
		t.Fatalf("RQFullEvents = %d, want 2", d.Stats().RQFullEvents)
	}
}

func TestPADCDemandFirst(t *testing.T) {
	cfg := DefaultConfig(1)
	d := MustNew(cfg)
	var order []mem.AccessType
	d.OnResponse(func(r *mem.Response) { order = append(order, r.Req.Type) })
	// Prefetches queued first, then a demand; PADC must schedule the demand
	// ahead of the untouched prefetches (different banks, all row-closed).
	for i := 0; i < 8; i++ {
		d.Issue(req(mem.Addr(i*64), mem.Prefetch))
	}
	d.Issue(req(mem.Addr(64*64), mem.Load)) // different bank
	drain(d, 0, 2000)
	if len(order) != 9 {
		t.Fatalf("completed %d/9", len(order))
	}
	if order[0] != mem.Load {
		t.Fatalf("first scheduled = %v, want demand load", order[0])
	}
}

func TestCriticalPrefetchPriority(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.CriticalPriority = true
	d := MustNew(cfg)
	var order []bool // critical flags in completion order
	d.OnResponse(func(r *mem.Response) { order = append(order, r.Req.Critical) })
	for i := 0; i < 8; i++ {
		d.Issue(req(mem.Addr(i*64), mem.Prefetch))
	}
	crit := req(mem.Addr(64*64), mem.Prefetch)
	crit.Critical = true
	d.Issue(crit)
	drain(d, 0, 2000)
	if len(order) != 9 {
		t.Fatalf("completed %d/9", len(order))
	}
	if !order[0] {
		t.Fatal("critical prefetch not scheduled first")
	}
}

func TestWriteDrainWatermark(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.WQ = 8
	d := MustNew(cfg)
	// Fill WQ to the 7/8 watermark.
	for i := 0; i < 7; i++ {
		if !d.Issue(req(mem.Addr(i*64), mem.Writeback)) {
			t.Fatalf("writeback refused at %d", i)
		}
	}
	// Keep reads flowing; drain should still retire writes.
	d.Issue(req(0x9000, mem.Load))
	drain(d, 0, 5000)
	if d.Stats().Writes == 0 {
		t.Fatal("no writes drained despite watermark")
	}
	if d.Stats().Reads != 1 {
		t.Fatalf("read lost: %d", d.Stats().Reads)
	}
}

func TestWQFull(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.WQ = 2
	d := MustNew(cfg)
	d.Issue(req(0x0, mem.Writeback))
	d.Issue(req(0x40, mem.Writeback))
	if d.Issue(req(0x80, mem.Writeback)) {
		t.Fatal("writeback accepted with full WQ")
	}
}

func TestUtilizationSignal(t *testing.T) {
	d := MustNew(DefaultConfig(1))
	// Keep the read queue saturated across several epochs, refilling as it
	// drains, then sample the per-channel signal.
	line := 0
	for cy := uint64(0); cy < 4*utilEpoch; cy++ {
		for d.Issue(req(mem.Addr(line*64), mem.Load)) {
			line++
			if len(d.chans[0].rdBk) >= 32 {
				break
			}
		}
		d.Tick(cy)
	}
	if u := d.GlobalUtilization(); u < 0.5 {
		t.Fatalf("saturated channel utilization %v < 0.5", u)
	}
	if d.Stats().Utilization() <= 0 {
		t.Fatal("aggregate utilization not recorded")
	}
	// An idle stretch must drag the signal back down.
	for cy := 4 * uint64(utilEpoch); cy < 8*utilEpoch; cy++ {
		d.Tick(cy)
	}
	if u := d.GlobalUtilization(); u > 0.2 {
		t.Fatalf("idle channel utilization %v > 0.2", u)
	}
}

func TestQueueDelayGrowsUnderLoad(t *testing.T) {
	light := MustNew(DefaultConfig(8))
	heavy := MustNew(DefaultConfig(1))
	feed := func(d *DRAM, n int) float64 {
		var cy uint64
		for i := 0; i < n; i++ {
			for !d.Issue(req(mem.Addr(i*64), mem.Load)) {
				d.Tick(cy)
				cy++
			}
		}
		for ; readsQueued(d) > 0; cy++ {
			d.Tick(cy)
		}
		return d.Stats().QueueDelay.Mean()
	}
	l, h := feed(light, 512), feed(heavy, 512)
	if h <= l {
		t.Fatalf("1-channel queue delay (%v) should exceed 8-channel (%v)", h, l)
	}
}

func TestRefreshBlocksChannelAndClosesRows(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.REFI, cfg.RFC = 500, 100
	d := MustNew(cfg)
	var dones []uint64
	d.OnResponse(func(r *mem.Response) { dones = append(dones, r.DoneCycle) })
	// Warm a row, let a refresh pass, then access the same row again: the
	// refresh closed it, so the second access pays RCD again.
	d.Issue(req(0x0, mem.Load))
	drain(d, 0, 300)
	first := dones[0]
	// Tick through the refresh boundary (cycle 500), then access again.
	drain(d, 300, 600)
	d.Issue(req(0x400, mem.Load)) // same bank, same row as 0x0
	drain(d, 600, 900)
	if len(dones) != 2 {
		t.Fatalf("completed %d/2", len(dones))
	}
	second := dones[1] - 600
	// Without refresh this would be a row hit (CAS only); the refresh
	// closed the row, so it must cost at least RCD+CAS.
	if second < tRCD+tCAS {
		t.Fatalf("post-refresh access took %d, want >= %d (row closed)",
			second, tRCD+tCAS)
	}
	_ = first
	if d.Stats().Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.REFI = 0
	d := MustNew(cfg)
	d.Issue(req(0x0, mem.Load))
	drain(d, 0, 100000)
	if d.Stats().Refreshes != 0 {
		t.Fatal("refreshes recorded with REFI=0")
	}
}

// TestStallEpochMatchesIssue pins the mem.Staller contract on the controller:
// StallEpoch is non-nil exactly when Issue would refuse, Refused(n) counts
// what n refused Issues count, and the epoch moves when — and only when —
// the refusing queue dequeues.
func TestStallEpochMatchesIssue(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RQ, cfg.WQ = 2, 2
	cfg.REFI = 0
	d, bulk := MustNew(cfg), MustNew(cfg)
	// Lines 0 and 2 route to channel 0; fill its read and write queues.
	for _, dd := range []*DRAM{d, bulk} {
		for _, line := range []mem.Addr{0, 2 << mem.LineShift} {
			if dd.StallEpoch(req(line, mem.Load)) != nil || !dd.Issue(req(line, mem.Load)) {
				t.Fatal("read refused before the queue is full")
			}
			if dd.StallEpoch(req(line, mem.Writeback)) != nil || !dd.Issue(req(line, mem.Writeback)) {
				t.Fatal("write refused before the queue is full")
			}
		}
	}
	ld, wb := req(4<<mem.LineShift, mem.Load), req(4<<mem.LineShift, mem.Writeback)
	pf := req(4<<mem.LineShift, mem.Prefetch)
	owned := req(4<<mem.LineShift, mem.Prefetch)
	owned.Owned = true
	if d.StallEpoch(pf) != nil {
		t.Fatal("droppable prefetch reports a stall; Issue drops it instead of refusing")
	}
	if d.StallEpoch(req(1<<mem.LineShift, mem.Load)) != nil {
		t.Fatal("channel 1 is empty but reports a stall")
	}
	rdEpoch, wrEpoch := d.StallEpoch(ld), d.StallEpoch(wb)
	if rdEpoch == nil || wrEpoch == nil || d.StallEpoch(owned) != rdEpoch || rdEpoch == wrEpoch {
		t.Fatal("full queues must report their own epochs (owned prefetches queue as reads)")
	}

	// n refused Issues on one side, Refused(n) on the other.
	for i := 0; i < 5; i++ {
		if d.Issue(ld) || d.Issue(wb) {
			t.Fatal("accepted with a full queue")
		}
	}
	bulk.Refused(ld, 5)
	bulk.Refused(wb, 5)
	if *d.Stats() != *bulk.Stats() {
		t.Fatalf("bulk refusal accounting differs:\n per call: %+v\n bulk:     %+v", *d.Stats(), *bulk.Stats())
	}
	if d.Stats().RQFullEvents != 5 || d.Stats().WQFullEvents != 5 {
		t.Fatalf("full events: RQ %d WQ %d, want 5 and 5", d.Stats().RQFullEvents, d.Stats().WQFullEvents)
	}

	// Tick until one queue dequeues: exactly its epoch moves, its request is
	// accepted again, and the other queue still refuses.
	rd0, wr0 := *rdEpoch, *wrEpoch
	for cy := uint64(0); *rdEpoch == rd0 && *wrEpoch == wr0; cy++ {
		if cy > 1000 {
			t.Fatal("neither queue ever dequeued")
		}
		d.Tick(cy)
	}
	freed, stuck := ld, wb
	if *wrEpoch != wr0 {
		freed, stuck = wb, ld
	}
	if (*rdEpoch != rd0) == (*wrEpoch != wr0) {
		t.Fatal("one controller cycle moved both epochs")
	}
	if d.StallEpoch(freed) != nil || !d.Issue(freed) {
		t.Fatalf("%v still refused after its queue dequeued", freed.Type)
	}
	if d.StallEpoch(stuck) == nil || d.Issue(stuck) {
		t.Fatalf("%v accepted though its queue never dequeued", stuck.Type)
	}
}

// TestOnDequeueRunsWhileTheRefusalStands: a requester charged lazily for its
// refused retries has to be charged before the refusal ends, so the
// controller announces each dequeue just before it happens — the queue still
// full, its epoch not yet moved — and names the queue as QueueOf numbers it.
func TestOnDequeueRunsWhileTheRefusalStands(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RQ, cfg.WQ = 2, 2
	cfg.REFI = 0
	d := MustNew(cfg)
	if !d.Idle() || d.Queues() != 4 {
		t.Fatalf("fresh controller: idle=%v queues=%d", d.Idle(), d.Queues())
	}
	// Lines 1 and 3 route to channel 1; fill its read queue.
	for _, line := range []mem.Addr{1 << mem.LineShift, 3 << mem.LineShift} {
		d.Issue(req(line, mem.Load))
	}
	ld, wb := req(5<<mem.LineShift, mem.Load), req(5<<mem.LineShift, mem.Writeback)
	if d.QueueOf(ld) != 2 || d.QueueOf(wb) != 3 || d.QueueOf(req(4<<mem.LineShift, mem.Load)) != 0 {
		t.Fatalf("queue numbering: read %d write %d", d.QueueOf(ld), d.QueueOf(wb))
	}
	epoch := d.StallEpoch(ld)
	if epoch == nil || d.Idle() {
		t.Fatal("read queue of channel 1 should be full")
	}
	seen, calls := *epoch, 0
	d.OnDequeue(func(queue int) {
		calls++
		if queue != d.QueueOf(ld) {
			t.Fatalf("dequeue of queue %d announced, want %d", queue, d.QueueOf(ld))
		}
		if d.StallEpoch(ld) != epoch || *epoch != seen {
			t.Fatal("announced after the refusal ended")
		}
		d.Refused(ld, 3) // what a lazily charged requester does here
	})
	for cy := uint64(0); calls == 0; cy++ {
		if cy > 1000 {
			t.Fatal("never dequeued")
		}
		d.Tick(cy)
	}
	if *epoch == seen || d.StallEpoch(ld) != nil {
		t.Fatal("the dequeue did not follow its announcement")
	}
	if d.Stats().RQFullEvents != 3 {
		t.Fatalf("RQFullEvents = %d, want the 3 charged in the callback", d.Stats().RQFullEvents)
	}
}
