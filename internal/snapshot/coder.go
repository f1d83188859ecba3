package snapshot

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The walk methods. Each takes a pointer and, by the Coder's direction,
// encodes what it points at or decodes into it; a failed load leaves a
// scalar receiver at zero.

// U64 walks a little-endian uint64.
func (s *Coder) U64(v *uint64) {
	if b := s.word("u64", 8); s.loading {
		*v = binary.LittleEndian.Uint64(b)
	} else {
		binary.LittleEndian.PutUint64(b, *v)
	}
}

// U32 walks a little-endian uint32.
func (s *Coder) U32(v *uint32) {
	if b := s.word("u32", 4); s.loading {
		*v = binary.LittleEndian.Uint32(b)
	} else {
		binary.LittleEndian.PutUint32(b, *v)
	}
}

// U16 walks a little-endian uint16.
func (s *Coder) U16(v *uint16) {
	if b := s.word("u16", 2); s.loading {
		*v = binary.LittleEndian.Uint16(b)
	} else {
		binary.LittleEndian.PutUint16(b, *v)
	}
}

// U8 walks one byte.
func (s *Coder) U8(v *uint8) {
	if b := s.word("u8", 1); s.loading {
		*v = b[0]
	} else {
		b[0] = *v
	}
}

// I64 walks an int64 by its two's-complement bit pattern.
func (s *Coder) I64(v *int64) {
	u := uint64(*v)
	if s.U64(&u); s.loading {
		*v = int64(u)
	}
}

// I32 walks an int32.
func (s *Coder) I32(v *int32) {
	u := uint32(*v)
	if s.U32(&u); s.loading {
		*v = int32(u)
	}
}

// I16 walks an int16.
func (s *Coder) I16(v *int16) {
	u := uint16(*v)
	if s.U16(&u); s.loading {
		*v = int16(u)
	}
}

// I8 walks an int8.
func (s *Coder) I8(v *int8) {
	u := uint8(*v)
	if s.U8(&u); s.loading {
		*v = int8(u)
	}
}

// Int walks an int as 64 bits.
func (s *Coder) Int(v *int) {
	u := uint64(*v)
	if s.U64(&u); s.loading {
		*v = int(int64(u))
	}
}

// Bool walks a bool as one byte; loading any byte other than 0/1 is corrupt.
func (s *Coder) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	if s.U8(&u); s.loading {
		if u > 1 {
			s.corrupt("bool")
		}
		*v = u == 1
	}
}

// F64 walks a float64 by bit pattern (exact round-trip, NaN included).
func (s *Coder) F64(v *float64) {
	u := math.Float64bits(*v)
	if s.U64(&u); s.loading {
		*v = math.Float64frombits(u)
	}
}

// String walks a length-prefixed string.
func (s *Coder) String(v *string) {
	b := s.window("string", s.count("string", len(*v), 1))
	switch {
	case s.loading:
		*v = string(b)
	case b != nil:
		copy(b, *v)
	}
}

// U64s walks a geometry-fixed []uint64 (a slab, a column, bitmap words),
// packed: the count, a bitmap of the nonzero elements (bit i%8 of byte
// i/8), one byte giving the width in bytes of the widest value, then each
// nonzero value in that many little-endian bytes. Most of an image's words
// are zero or small. Loading requires the encoded count to equal len(vs),
// clears vs and scatters the nonzero values into it.
func (s *Coder) U64s(vs []uint64) {
	if s.loading {
		s.loadU64s(vs)
	} else {
		s.saveU64s(vs)
	}
}

// saveU64s encodes vs. A first pass builds the bitmap in the Coder's scratch
// and finds the width, which sizes the column's one window; a second visits
// only the flagged elements. Each value is stored as a whole word and the
// cursor advances by the width, so the next store overwrites the zero high
// bytes, and the last spills into 8 bytes reserved past the window's end.
func (s *Coder) saveU64s(vs []uint64) {
	mapLen := (len(vs) + 7) / 8
	s.bitmap = slices.Grow(s.bitmap[:0], mapLen)[:mapLen]
	var or uint64
	full := len(vs) / 8
	for i := range full {
		c := vs[8*i : 8*i+8 : 8*i+8]
		or |= c[0] | c[1] | c[2] | c[3] | c[4] | c[5] | c[6] | c[7]
		s.bitmap[i] = uint8(nonzero(c[0]) | nonzero(c[1])<<1 | nonzero(c[2])<<2 | nonzero(c[3])<<3 |
			nonzero(c[4])<<4 | nonzero(c[5])<<5 | nonzero(c[6])<<6 | nonzero(c[7])<<7)
	}
	if full < mapLen {
		var m uint64
		for j, v := range vs[8*full:] {
			or |= v
			m |= nonzero(v) << j
		}
		s.bitmap[full] = uint8(m)
	}
	count := 0
	for _, m := range s.bitmap {
		count += bits.OnesCount8(m)
	}
	width := (bits.Len64(or) + 7) / 8
	n := len(vs)
	s.Int(&n)
	b := s.window("u64 slice", mapLen+1+count*width+8)
	if b == nil {
		return
	}
	s.buf = s.buf[:len(s.buf)-8]
	copy(b, s.bitmap)
	b[mapLen] = uint8(width)
	at := mapLen + 1
	for i, m := range s.bitmap {
		for ; m != 0; m &= m - 1 {
			binary.LittleEndian.PutUint64(b[at:], vs[8*i+bits.TrailingZeros8(m)])
			at += width
		}
	}
}

// nonzero is 1 for a nonzero v and 0 for zero, without a branch.
func nonzero(v uint64) uint64 { return (v | -v) >> 63 }

// loadU64s decodes into dst. Only the encoding saveU64s produces is
// accepted, so loading and saving again returns the same bytes: a width
// above 8 or other than the widest value needs, a flagged element that
// decodes to zero and a bitmap bit set past the count are all corrupt.
func (s *Coder) loadU64s(dst []uint64) {
	const what = "u64 slice"
	var n int
	if s.Int(&n); s.err == nil && n != len(dst) {
		s.corrupt(what + " length")
	}
	mapLen := (len(dst) + 7) / 8
	if s.err != nil || mapLen+1 > len(s.buf)-s.off {
		s.corrupt(what)
		return
	}
	head := s.buf[s.off : s.off+mapLen+1]
	width := int(head[mapLen])
	if width > 8 {
		s.corrupt(what + " width")
		return
	}
	if tail := len(dst) % 8; tail != 0 && head[mapLen-1]>>tail != 0 {
		s.corrupt(what + " bitmap padding")
		return
	}
	count := 0
	for _, m := range head[:mapLen] {
		count += bits.OnesCount8(m)
	}
	b := s.window(what, mapLen+1+count*width)
	if b == nil {
		return
	}
	clear(dst)
	// A value is one word load masked to width (a zero width masks to 0),
	// except within a word of the stream's end, where it is read bytewise.
	mask := ^uint64(0) >> (64 - 8*width)
	at := s.off - count*width // the first value's offset in s.buf
	var or uint64
	for i, m := range b[:mapLen] {
		for ; m != 0; m &= m - 1 {
			var v uint64
			if at+8 <= len(s.buf) {
				v = binary.LittleEndian.Uint64(s.buf[at:]) & mask
			} else {
				for k := width - 1; k >= 0; k-- {
					v = v<<8 | uint64(s.buf[at+k])
				}
			}
			if v == 0 {
				s.corrupt(what + " zero value")
				return
			}
			dst[8*i+bits.TrailingZeros8(m)] = v
			or |= v
			at += width
		}
	}
	if (bits.Len64(or)+7)/8 != width {
		s.corrupt(what + " width")
	}
}

// U8s walks a geometry-fixed []uint8 column, packed as U64s packs words
// less the width byte, which a byte column does not need: the count, the
// bitmap of the nonzero elements, then each nonzero byte.
func (s *Coder) U8s(vs []uint8) { walkBytes(s, "u8 slice", vs) }

// I32s walks a geometry-fixed []int32 column.
func (s *Coder) I32s(vs []int32) {
	b := s.column("i32 slice", len(vs), 4)
	switch {
	case b == nil:
	case s.loading:
		for i := range vs {
			vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	default:
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	}
}

// I8s walks a geometry-fixed []int8 table, packed as U8s packs bytes.
func (s *Coder) I8s(vs []int8) { walkBytes(s, "i8 slice", vs) }

// lo7 is the low seven bits of every byte of a word: ((w&lo7+lo7)|w)&^lo7
// is bit 7 of each nonzero byte of w.
const lo7 uint64 = 0x7f7f7f7f7f7f7f7f

// walkBytes walks a byte column packed (see U8s).
func walkBytes[T ~uint8 | ~int8](s *Coder, what string, vs []T) {
	if s.loading {
		loadBytes(s, what, vs)
	} else {
		saveBytes(s, what, vs)
	}
}

// loadBytes decodes into vs. Only the encoding saveBytes produces is
// accepted: a flagged element that decodes to zero and a bitmap bit set
// past the count are corrupt.
func loadBytes[T ~uint8 | ~int8](s *Coder, what string, vs []T) {
	mapLen := (len(vs) + 7) / 8
	var n int
	if s.Int(&n); s.err == nil && n != len(vs) {
		s.corrupt(what + " length")
	}
	if s.err != nil || mapLen > len(s.buf)-s.off {
		s.corrupt(what)
		return
	}
	head := s.buf[s.off : s.off+mapLen]
	if tail := len(vs) % 8; tail != 0 && head[mapLen-1]>>tail != 0 {
		s.corrupt(what + " bitmap padding")
		return
	}
	count := 0
	for _, m := range head {
		count += bits.OnesCount8(m)
	}
	b := s.window(what, mapLen+count)
	if b == nil {
		return
	}
	clear(vs)
	at := mapLen
	for i, m := range b[:mapLen] {
		if m == 0xff { // eight values: one test for a zero among them
			c, d := b[at:at+8:at+8], vs[8*i:8*i+8:8*i+8]
			if w := binary.LittleEndian.Uint64(c); ((w&lo7+lo7)|w)&^lo7 != ^lo7 {
				s.corrupt(what + " zero value")
				return
			}
			d[0], d[1], d[2], d[3] = T(c[0]), T(c[1]), T(c[2]), T(c[3])
			d[4], d[5], d[6], d[7] = T(c[4]), T(c[5]), T(c[6]), T(c[7])
			at += 8
			continue
		}
		for ; m != 0; m &= m - 1 {
			if b[at] == 0 {
				s.corrupt(what + " zero value")
				return
			}
			vs[8*i+bits.TrailingZeros8(m)] = T(b[at])
			at++
		}
	}
}

// saveBytes encodes vs in one pass over a window reserved at its unpacked
// size, eight elements at a time as one word: an all-zero group costs one
// test, an all-nonzero one one store, and a mixed one a store per nonzero
// element. The unused end of the window is dropped.
func saveBytes[T ~uint8 | ~int8](s *Coder, what string, vs []T) {
	mapLen := (len(vs) + 7) / 8
	n := len(vs)
	s.Int(&n)
	b := s.window(what, mapLen+len(vs))
	if b == nil {
		return
	}
	at := mapLen
	for i := range mapLen {
		var w uint64
		if c := vs[8*i:]; len(c) >= 8 {
			w = uint64(uint8(c[0])) | uint64(uint8(c[1]))<<8 | uint64(uint8(c[2]))<<16 |
				uint64(uint8(c[3]))<<24 | uint64(uint8(c[4]))<<32 | uint64(uint8(c[5]))<<40 |
				uint64(uint8(c[6]))<<48 | uint64(uint8(c[7]))<<56
		} else {
			for j, v := range c {
				w |= uint64(uint8(v)) << (8 * j)
			}
		}
		// Bit 7 of each nonzero byte, gathered into bit j of m for byte j.
		m := uint8((((w&lo7 + lo7) | w) &^ lo7 >> 7) * 0x0102040810204080 >> 56)
		b[i] = m
		switch m {
		case 0:
		case 0xff:
			binary.LittleEndian.PutUint64(b[at:], w)
			at += 8
		default:
			for ; m != 0; m &= m - 1 {
				b[at] = uint8(w >> (8 * bits.TrailingZeros8(m)))
				at++
			}
		}
	}
	s.buf = s.buf[:len(s.buf)-(len(b)-at)]
}

// Bools walks a geometry-fixed []bool, one byte an element; loading any
// byte other than 0/1 is corrupt.
func (s *Coder) Bools(vs []bool) {
	b := s.column("bool slice", len(vs), 1)
	switch {
	case b == nil:
	case s.loading:
		for i := range vs {
			if b[i] > 1 {
				s.corrupt("bool")
				return
			}
			vs[i] = b[i] == 1
		}
	default:
		for i, v := range vs {
			b[i] = 0
			if v {
				b[i] = 1
			}
		}
	}
}

// Fixed walks a count that configuration fixes (a table's entries, a
// queue's capacity): saving writes n, loading requires the image to hold
// the same n. It reports whether the walk may go on.
func (s *Coder) Fixed(what string, n int) bool {
	got := n
	if s.Int(&got); s.loading && s.err == nil && got != n {
		s.Corrupt("%s: snapshot has %d, receiver has %d", what, got, n)
	}
	return s.err == nil
}

// Kind is Fixed for a one-byte discriminator (which policy, which
// predictor): an image restores only into a receiver of the same kind.
func (s *Coder) Kind(what string, k uint8) bool {
	got := k
	if s.U8(&got); s.loading && s.err == nil && got != k {
		s.Corrupt("%s: snapshot holds kind %d, receiver is kind %d", what, got, k)
	}
	return s.err == nil
}

// Len walks the count of a variable-length list and returns it: saving
// writes n; loading returns the decoded count, or 0 with ErrCorrupt latched
// when it is negative, above max (the list's semantic bound, MaxLen where
// it has none) or more than the rest of the stream could hold at elemSize
// encoded bytes an element — so a corrupt count never sizes an allocation.
func (s *Coder) Len(what string, n, max, elemSize int) int {
	if n = s.count(what, n, elemSize); s.loading && n > max {
		s.Corrupt("%s: %d entries, at most %d", what, n, max)
		return 0
	}
	return n
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
