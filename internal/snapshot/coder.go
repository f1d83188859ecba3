package snapshot

import (
	"fmt"
	"slices"
)

// Coder walks state in one direction. Bound to a Writer it encodes every
// value it is shown; bound to a Reader it decodes into the same values. A
// component therefore has one State(*Coder) function that visits its fields
// in stream order, and saving and loading cannot disagree about that order.
//
// Within a State body the convention is: a field that is visited is saved; a
// field that is not visited is rebuilt from configuration by the
// constructor; a memo derived from saved state is settled in an
// `if !s.Loading()` head before the walk and dropped or rebuilt, with the
// restored cursors validated, in an `if s.Loading()` tail after it.
//
// Errors latch in the underlying Writer or Reader, so a body needs no error
// plumbing beyond stopping where a decoded value would be used as an index.
type Coder struct {
	w *Writer
	r *Reader
}

// Coder returns a Coder that saves into w.
func (w *Writer) Coder() *Coder { return &Coder{w: w} }

// Coder returns a Coder that loads from r.
func (r *Reader) Coder() *Coder { return &Coder{r: r} }

// Loading reports whether the walk decodes (true) or encodes (false).
func (s *Coder) Loading() bool { return s.r != nil }

// Err returns the latched error of the stream.
func (s *Coder) Err() error {
	if s.r != nil {
		return s.r.err
	}
	return s.w.err
}

// Fail latches err on the stream.
func (s *Coder) Fail(err error) {
	if s.r != nil {
		s.r.Fail(err)
	} else {
		s.w.Fail(err)
	}
}

// Corrupt latches ErrCorrupt with a formatted description of what a loaded
// value violated.
func (s *Coder) Corrupt(format string, args ...any) {
	s.Fail(fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt))
}

// U64 walks a uint64.
func (s *Coder) U64(v *uint64) {
	if s.r != nil {
		*v = s.r.U64()
	} else {
		s.w.U64(*v)
	}
}

// U32 walks a uint32.
func (s *Coder) U32(v *uint32) {
	if s.r != nil {
		*v = s.r.U32()
	} else {
		s.w.U32(*v)
	}
}

// U16 walks a uint16.
func (s *Coder) U16(v *uint16) {
	if s.r != nil {
		*v = s.r.U16()
	} else {
		s.w.U16(*v)
	}
}

// U8 walks one byte.
func (s *Coder) U8(v *uint8) {
	if s.r != nil {
		*v = s.r.U8()
	} else {
		s.w.U8(*v)
	}
}

// I64 walks an int64.
func (s *Coder) I64(v *int64) {
	if s.r != nil {
		*v = s.r.I64()
	} else {
		s.w.I64(*v)
	}
}

// I32 walks an int32.
func (s *Coder) I32(v *int32) {
	if s.r != nil {
		*v = s.r.I32()
	} else {
		s.w.I32(*v)
	}
}

// I8 walks an int8.
func (s *Coder) I8(v *int8) {
	if s.r != nil {
		*v = s.r.I8()
	} else {
		s.w.I8(*v)
	}
}

// Int walks an int as 64 bits.
func (s *Coder) Int(v *int) {
	if s.r != nil {
		*v = s.r.Int()
	} else {
		s.w.Int(*v)
	}
}

// Bool walks a bool; loading any byte other than 0/1 is corrupt.
func (s *Coder) Bool(v *bool) {
	if s.r != nil {
		*v = s.r.Bool()
	} else {
		s.w.Bool(*v)
	}
}

// F64 walks a float64 by bit pattern.
func (s *Coder) F64(v *float64) {
	if s.r != nil {
		*v = s.r.F64()
	} else {
		s.w.F64(*v)
	}
}

// String walks a length-prefixed string.
func (s *Coder) String(v *string) {
	if s.r != nil {
		*v = s.r.String()
	} else {
		s.w.String(*v)
	}
}

// U64s walks a geometry-fixed []uint64 (a slab, a column, bitmap words):
// loading requires the encoded length to equal len(vs).
func (s *Coder) U64s(vs []uint64) {
	if s.r != nil {
		s.r.U64s(vs)
	} else {
		s.w.U64s(vs)
	}
}

// U8s walks a geometry-fixed []uint8 column.
func (s *Coder) U8s(vs []uint8) {
	if s.r != nil {
		s.r.U8s(vs)
	} else {
		s.w.U8s(vs)
	}
}

// I32s walks a geometry-fixed []int32 column.
func (s *Coder) I32s(vs []int32) {
	if s.r != nil {
		s.r.I32s(vs)
	} else {
		s.w.I32s(vs)
	}
}

// I8s walks a geometry-fixed []int8 table.
func (s *Coder) I8s(vs []int8) {
	if s.r != nil {
		s.r.I8s(vs)
	} else {
		s.w.I8s(vs)
	}
}

// Bools walks a geometry-fixed []bool.
func (s *Coder) Bools(vs []bool) {
	if s.r != nil {
		s.r.Bools(vs)
	} else {
		s.w.Bools(vs)
	}
}

// Fixed walks a count that configuration fixes (a table's entries, a
// queue's capacity): saving writes n, loading requires the image to hold
// the same n. It reports whether the walk may go on.
func (s *Coder) Fixed(what string, n int) bool {
	if s.r == nil {
		s.w.Int(n)
		return s.w.err == nil
	}
	if got := s.r.Int(); s.r.err == nil && got != n {
		s.Corrupt("%s: snapshot has %d, receiver has %d", what, got, n)
	}
	return s.r.err == nil
}

// Kind is Fixed for a one-byte discriminator (which policy, which
// predictor): an image restores only into a receiver of the same kind.
func (s *Coder) Kind(what string, k uint8) bool {
	if s.r == nil {
		s.w.U8(k)
		return s.w.err == nil
	}
	if got := s.r.U8(); s.r.err == nil && got != k {
		s.Corrupt("%s: snapshot holds kind %d, receiver is kind %d", what, got, k)
	}
	return s.r.err == nil
}

// Len walks the count of a variable-length list and returns it: saving
// writes n; loading returns the decoded count, or 0 with ErrCorrupt latched
// when it is negative, above max (the list's semantic bound, MaxLen where
// it has none) or more than the rest of the stream could hold at elemSize
// encoded bytes an element — so a corrupt count never sizes an allocation.
func (s *Coder) Len(what string, n, max, elemSize int) int {
	if s.r == nil {
		s.w.Int(n)
		return n
	}
	got := s.r.sliceLen(what, elemSize)
	if got > max {
		s.Corrupt("%s: %d entries, at most %d", what, got, max)
		return 0
	}
	return got
}

// Slice walks the count of the variable-length list *p (see Len) and returns
// the list for the caller to walk element by element. Loading first resizes
// *p to the decoded count, zeroed, in its own backing array, grown once when
// that is too small; after an error the count is 0.
func Slice[T any](s *Coder, what string, p *[]T, max, elemSize int) []T {
	n := s.Len(what, len(*p), max, elemSize)
	if s.Loading() {
		reused := cap(*p) >= n // a grown array is new, and zero already
		*p = slices.Grow((*p)[:0], n)[:n]
		if reused {
			clear(*p)
		}
	}
	return *p
}

// Section brackets fn's walk with a tag and a length prefix (see
// Writer.Section and Reader.Section).
func (s *Coder) Section(tag string, fn func()) {
	if s.r != nil {
		s.r.Section(tag, fn)
	} else {
		s.w.Section(tag, fn)
	}
}
