package main

import (
	"runtime"
	"time"
)

// span is one timed call from bench/ into a layer. Spans are kept in memory
// and only read after the repetitions end.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was created
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Rep     int    `json:"rep"`    // repetition id shared by a root and its descendants
	Mallocs uint64 `json:"mallocs"`
}

// spans records spans. A nil *spans is tracing off: every method is a no-op,
// so the untraced path pays one nil check per call into a layer.
type spans struct {
	t0   time.Time
	list []span
	reps int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// begin opens a span under parent (-1 opens a new repetition).
func (sp *spans) begin(name string, parent int) int {
	if sp == nil {
		return -1
	}
	rep := sp.reps
	if parent >= 0 {
		rep = sp.list[parent].Rep
	} else {
		sp.reps++
	}
	sp.list = append(sp.list, span{Name: name, Parent: parent, Rep: rep, Mallocs: mallocs()})
	id := len(sp.list) - 1
	sp.list[id].StartNs = time.Since(sp.t0).Nanoseconds()
	return id
}

func (sp *spans) end(id int) {
	if sp == nil {
		return
	}
	s := &sp.list[id]
	s.EndNs = time.Since(sp.t0).Nanoseconds()
	s.Mallocs = mallocs() - s.Mallocs
}

func (s *span) dur() int64 { return s.EndNs - s.StartNs }

// selfNs returns each span's duration minus the part its children cover.
func (sp *spans) selfNs() []int64 {
	self := make([]int64, len(sp.list))
	for i := range sp.list {
		self[i] += sp.list[i].dur()
		if p := sp.list[i].Parent; p >= 0 {
			self[p] -= sp.list[i].dur()
		}
	}
	return self
}

// totals sums duration and mallocs per span name over all repetitions, and
// returns the summed duration of the root spans.
func (sp *spans) totals() (byName map[string]span, rootNs int64) {
	byName = map[string]span{}
	for i := range sp.list {
		s := &sp.list[i]
		t := byName[s.Name]
		t.EndNs += s.dur()
		t.Mallocs += s.Mallocs
		byName[s.Name] = t
		if s.Parent < 0 {
			rootNs += s.dur()
		}
	}
	return byName, rootNs
}
