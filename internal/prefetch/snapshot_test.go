package prefetch

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// TestBertiSnapshotManifest: the live rows' blocks go out; every history
// ring, delta set and per-row counter is a run of a block.
func TestBertiSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, Berti{},
		[]string{
			"aggr", // the aggressiveness level throttlers move
			"rows", "slab", "nextRow", "latencyEst",
		},
		[]string{
			// Scratch consumed within one Train.
			"scratchTop", "scratchOut",
		})
}

// TestBertiRowsGrow: the slab starts at bertiInitRows rows and grows as
// rows are handed out, which changes nothing Berti does or saves. An IP
// sweep that hands out all 64 rows and then recycles them, as a cloud
// workload's many load IPs do, yields the candidates of a Berti built at
// full capacity, step for step; and an image taken at 9, 16, 17 and 64 rows
// equals the full-capacity Berti's, restores into a fresh Berti and saves
// again to the same bytes.
func TestBertiRowsGrow(t *testing.T) {
	save := func(b *Berti) []byte {
		s := snapshot.NewSaver(0)
		b.State(s)
		img, err := s.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	b, ref := &newBertis(nil, 1)[0], &newBertis(nil, 1)[0]
	ref.fit(bertiTableSize)
	if len(b.slab) != bertiInitRows*bertiRowWords {
		t.Fatalf("a new Berti holds %d words, want %d rows' worth", len(b.slab), bertiInitRows)
	}
	rng := mem.NewPRNG(0xb3271)
	next := map[uint64]uint64{} // IP -> its stream's next line
	saved := map[int32]bool{9: false, 16: false, 17: false, bertiTableSize: false}
	cycle, issued := uint64(0), 0
	for i := range 12000 {
		// The IP population widens by one every 100 accesses, past the
		// table's 64 rows.
		ip := 0x400000 + 8*(rng.Uint64()%uint64(1+i/100))
		line := next[ip]
		if line == 0 {
			line = ip << 8
		}
		next[ip] = line + 1 + ip%3
		cycle += 20 + rng.Uint64()%200
		a := Access{IP: ip, Addr: mem.Addr(line << mem.LineShift), Cycle: cycle}
		got, want := b.Train(a), ref.Train(a)
		if !slices.Equal(got, want) {
			t.Fatalf("access %d: candidates %v, full-capacity Berti %v", i, got, want)
		}
		issued += len(got)
		if done, ok := saved[b.nextRow]; !ok || done {
			continue
		}
		saved[b.nextRow] = true
		img := save(b)
		if !bytes.Equal(img, save(ref)) {
			t.Fatalf("%d rows: the image depends on the slab's capacity", b.nextRow)
		}
		fresh := &newBertis(nil, 1)[0]
		l, err := snapshot.NewLoader(img)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.State(l); l.Done() != nil {
			t.Fatalf("%d rows: restoring into a fresh Berti: %v", b.nextRow, l.Done())
		}
		if !bytes.Equal(save(fresh), img) {
			t.Fatalf("%d rows: the restored Berti saves different bytes", b.nextRow)
		}
	}
	if issued < 1000 {
		t.Errorf("the sweep drew %d candidates: too few to compare", issued)
	}
	for rows, done := range saved {
		if !done {
			t.Errorf("the sweep never held %d rows", rows)
		}
	}
	if len(b.slab) != bertiTableSize*bertiRowWords {
		t.Errorf("after the sweep the slab holds %d words, want %d rows' worth", len(b.slab), bertiTableSize)
	}
}

// TestAggressivenessOutOfRangeRefused: an image whose aggressiveness level
// no throttler can set is refused on load. At level 6 an engine's degree
// would outrun its output array, and at a huge one Train would emit
// candidates without bound.
func TestAggressivenessOutOfRangeRefused(t *testing.T) {
	for _, name := range Names() {
		for _, level := range []int{maxAggressiveness + 1, 1 << 40, -1} {
			p, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			var knob *aggr
			switch e := p.(type) {
			case *Berti:
				knob = &e.aggr
			case *IPCP:
				knob = &e.aggr
			case *Bingo:
				knob = &e.aggr
			case *SPPPPF:
				knob = &e.aggr
			case *Stride:
				knob = &e.aggr
			case *Stream:
				knob = &e.aggr
			default:
				continue // none: no level
			}
			knob.level = level
			s := snapshot.NewSaver(0)
			State(s, p)
			img, err := s.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			fresh, _ := New(name)
			l, err := snapshot.NewLoader(img)
			if err != nil {
				t.Fatal(err)
			}
			State(l, fresh)
			if err := l.Done(); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s at aggressiveness %d loaded: err=%v", name, level, err)
			}
		}
	}
}
