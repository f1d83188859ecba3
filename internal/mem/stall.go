package mem

// Staller is the optional extension of a request sink (a cache.Lower or a
// cpu.MemoryPort) behind sleeping on structural stalls. A requester whose
// Issue(req) was refused asks the sink for the epoch counter that advances
// whenever a slot req competes for frees up; while the counter stands still
// a retry would be refused again with no effect beyond per-retry accounting,
// so the requester stops retrying and has that accounting applied in bulk.
type Staller interface {
	// StallEpoch returns the counter to watch when Issue(req), issued now,
	// would be refused purely — changing nothing but what Refused accounts
	// for — and nil when it would be accepted or has other side effects and
	// must therefore be retried every cycle. It never changes state.
	StallEpoch(req *Request) *uint64
	// Refused applies the accounting of n refused Issue(req) calls. The
	// caller guarantees the watched epoch has not moved since StallEpoch.
	Refused(req *Request, n uint64)
}

// Watch is a requester's memo of one refused Issue: the sink's epoch counter
// and the value it had at refusal. The zero Watch holds nothing. A Watch is
// rebuilt state — never part of a snapshot image; a restored requester
// simply retries once and re-arms it.
type Watch struct {
	epoch *uint64
	seen  uint64
}

// WatchRefusal arms a Watch for the request s just refused. A nil s (the
// sink does not support sleeping) or a refusal that must keep retrying yields
// the zero Watch.
func WatchRefusal(s Staller, req *Request) Watch {
	if s == nil {
		return Watch{}
	}
	e := s.StallEpoch(req)
	if e == nil {
		return Watch{}
	}
	return Watch{epoch: e, seen: *e}
}

// Holds reports whether the refusal still stands: the watch is armed and no
// slot has freed since.
func (w Watch) Holds() bool { return w.epoch != nil && *w.epoch == w.seen }

// Moved reports whether the watch is armed and a slot has freed since: the
// refusal may no longer stand, and only asking the sink again can tell.
func (w Watch) Moved() bool { return w.epoch != nil && *w.epoch != w.seen }
