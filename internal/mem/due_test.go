package mem

import (
	"bytes"
	"errors"
	"testing"

	"clip/internal/snapshot"
)

// naiveDue is the list DueQueue replaces: every delivery pass scans all of it
// in push order and compacts what is not due yet.
type naiveDue []Response

func (l *naiveDue) deliver(cy uint64) (due []Response) {
	rest := (*l)[:0]
	for _, r := range *l {
		if r.DoneCycle <= cy {
			due = append(due, r)
		} else {
			rest = append(rest, r)
		}
	}
	*l = rest
	return due
}

// image is what the list saves as: its entries in order, then the earliest
// DoneCycle.
func (l naiveDue) image(t *testing.T) []byte {
	t.Helper()
	w := snapshot.NewSaver(0)
	n := len(l)
	w.Int(&n)
	next := NoEvent
	for i := range l {
		l[i].State(w)
		next = min(next, l[i].DoneCycle)
	}
	w.U64(&next)
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func saveDue(t *testing.T, q *DueQueue) []byte {
	t.Helper()
	w := snapshot.NewSaver(0)
	q.State(w, nil)
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDueQueueMatchesScannedList: lanes whose DoneCycles never decrease,
// several maturing on the same cycle, delivered every cycle — the queue must
// hand out exactly what a scan of the push-ordered list finds, in its order,
// report the same earliest DoneCycle, and save as that list; a queue restored
// mid-run from the image carries on identically.
func TestDueQueueMatchesScannedList(t *testing.T) {
	const lanes = 4
	for seed := uint64(1); seed <= 5; seed++ {
		rng := NewPRNG(seed)
		q := NewDueQueue(nil, lanes)
		var list naiveDue
		var last [lanes]uint64
		var id uint64
		for cy := uint64(0); cy < 3000; cy++ {
			for lane := 0; lane < lanes; lane++ {
				if !rng.Bool(0.3) {
					continue
				}
				id++
				done := max(last[lane], cy+1) + uint64(rng.Intn(3))*5
				last[lane] = done
				r := Response{Req: Request{IP: id, Core: int16(lane)}, DoneCycle: done}
				q.Push(lane, &r)
				list = append(list, r)
			}
			for k, want := range list.deliver(cy) {
				if got := q.Pop(cy); got == nil || *got != want {
					t.Fatalf("seed %d cycle %d: delivery %d is %+v, the scanned list gives %+v", seed, cy, k, got, want)
				}
			}
			if got := q.Pop(cy); got != nil {
				t.Fatalf("seed %d cycle %d: extra delivery %+v", seed, cy, *got)
			}
			next := NoEvent
			for _, r := range list {
				next = min(next, r.DoneCycle)
			}
			if q.Next() != next {
				t.Fatalf("seed %d cycle %d: Next %d, the list's earliest is %d", seed, cy, q.Next(), next)
			}
			if cy%500 != 250 {
				continue
			}
			image := saveDue(t, &q)
			if !bytes.Equal(image, list.image(t)) {
				t.Fatalf("seed %d cycle %d: image is not the push-ordered list", seed, cy)
			}
			r, err := snapshot.NewLoader(image)
			if err != nil {
				t.Fatal(err)
			}
			q = NewDueQueue(nil, lanes)
			q.State(r, func(r *Response) int { return int(r.Req.Core) })
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saveDue(t, &q), image) {
				t.Fatalf("seed %d cycle %d: save after load differs", seed, cy)
			}
		}
		if id < 1000 || q.Examined == 0 {
			t.Fatalf("seed %d: only %d responses went through", seed, id)
		}
	}
}

// TestDueQueueRejectsUnorderedLane: an image whose lane is not in DoneCycle
// order cannot come from a run; loading it must fail, not deliver late.
func TestDueQueueRejectsUnorderedLane(t *testing.T) {
	image := naiveDue{{DoneCycle: 20}, {DoneCycle: 10}}.image(t)
	r, err := snapshot.NewLoader(image)
	if err != nil {
		t.Fatal(err)
	}
	q := NewDueQueue(nil, 1)
	q.State(r, func(*Response) int { return 0 })
	if !errors.Is(r.Err(), snapshot.ErrCorrupt) {
		t.Fatalf("unordered lane loaded: err=%v", r.Err())
	}
}

// TestDueQueueSnapshotManifest: the lanes go out as one list in push order;
// the rest is derived from it.
func TestDueQueueSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, DueQueue{},
		[]string{"lanes"},
		[]string{
			// Memo: rebuilt by the pushes of a load (the saved earliest
			// DoneCycle is read and dropped); out is valid until the next Pop
			// only, and Examined counts the simulator.
			"next", "seq", "out", "Examined",
		})
}
