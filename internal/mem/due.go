package mem

import (
	"cmp"
	"slices"

	"clip/internal/invariant"
	"clip/internal/snapshot"
)

// DueQueue holds responses until their DoneCycle. Each lane is a FIFO whose
// DoneCycles never decrease in push order — one lane per source that
// completes in order, such as a DRAM channel, whose data bus serializes its
// reads — so whatever is due sits at the front of a lane, and the push
// sequence orders lanes that mature on the same cycle the way one list
// scanned in push order would. Pushing and popping move one response each.
type DueQueue struct {
	lanes []Ring[dueResp]
	next  uint64 // earliest front DoneCycle, NoEvent when empty
	seq   uint64 // pushes so far
	out   Response
	// Examined counts the lane fronts Pop has looked at (a self-counter of
	// the simulator, not state).
	Examined uint64
}

type dueResp struct {
	resp Response
	seq  uint64
}

// laneCap is each lane's initial capacity (a power of two, as Ring needs):
// the in-flight reads of a channel under eight cores fit, so their lanes
// never grow.
const laneCap = 32

// NewDueQueue returns an empty queue with the given number of lanes, their
// buffers carved from one slab, the slabs taken from a (Make).
func NewDueQueue(a *Arena, lanes int) DueQueue {
	q := DueQueue{lanes: Make[Ring[dueResp]](a, lanes), next: NoEvent}
	slab := Make[dueResp](a, lanes*laneCap)
	for i := range q.lanes {
		q.lanes[i].buf = slab[i*laneCap : (i+1)*laneCap : (i+1)*laneCap]
	}
	return q
}

// Next returns the earliest DoneCycle queued, NoEvent when empty.
func (q *DueQueue) Next() uint64 { return q.next }

// Push queues a copy of r on lane, behind everything the lane holds.
func (q *DueQueue) Push(lane int, r *Response) {
	l := &q.lanes[lane]
	if invariant.Enabled && l.Len() > 0 {
		invariant.Check(l.At(l.Len()-1).resp.DoneCycle <= r.DoneCycle,
			"mem.DueQueue: response due at %d queued behind one due at %d", r.DoneCycle, l.At(l.Len()-1).resp.DoneCycle)
	}
	l.Push(dueResp{resp: *r, seq: q.seq})
	q.seq++
	q.next = min(q.next, r.DoneCycle)
}

// Pop removes and returns the earliest-pushed response due at cycle cy, nil
// when none is. The response is valid until the next Pop.
func (q *DueQueue) Pop(cy uint64) *Response {
	if cy < q.next {
		return nil
	}
	var due *Ring[dueResp]
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.Len() == 0 {
			continue
		}
		q.Examined++
		if f := l.Front(); f.resp.DoneCycle <= cy && (due == nil || f.seq < due.Front().seq) {
			due = l
		}
	}
	q.out = due.PopFront().resp
	q.next = NoEvent
	for i := range q.lanes {
		if l := &q.lanes[i]; l.Len() > 0 {
			q.next = min(q.next, l.Front().resp.DoneCycle)
		}
	}
	return &q.out
}

// State walks the queue as the list in push order it stands for, followed by
// the earliest DoneCycle. Loading refills the lanes from the list, each
// response into the lane laneOf names; the earliest DoneCycle is rebuilt,
// not trusted.
func (q *DueQueue) State(s *snapshot.Coder, laneOf func(*Response) int) {
	var all []*dueResp
	if !s.Loading() {
		for i := range q.lanes {
			for k := 0; k < q.lanes[i].Len(); k++ {
				all = append(all, q.lanes[i].At(k))
			}
		}
		slices.SortFunc(all, func(a, b *dueResp) int { return cmp.Compare(a.seq, b.seq) })
	}
	n := s.Len("mem: pending responses", len(all), snapshot.MaxLen, ResponseBytes)
	for _, e := range all {
		e.resp.State(s)
	}
	if s.Loading() {
		for i := range q.lanes {
			for l := &q.lanes[i]; l.Len() > 0; {
				l.PopFront()
			}
		}
		q.next, q.seq = NoEvent, 0
		var resp Response // one for all: laneOf makes it escape
		for i := 0; i < n && s.Err() == nil; i++ {
			resp.State(s)
			lane := laneOf(&resp)
			if l := &q.lanes[lane]; l.Len() > 0 && l.At(l.Len()-1).resp.DoneCycle > resp.DoneCycle {
				s.Corrupt("mem: pending response due at %d saved behind one due at %d",
					resp.DoneCycle, l.At(l.Len()-1).resp.DoneCycle)
				return
			}
			q.Push(lane, &resp)
		}
	}
	next := q.next // loading: read and dropped
	s.U64(&next)
}
