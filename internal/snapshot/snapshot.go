// Package snapshot is the versioned binary codec behind deterministic
// checkpoint/restore of simulator state (DESIGN.md §12).
//
// The format is deliberately simple: a magic+version header, then a flat
// little-endian stream produced by Writer and consumed by Reader. Scalars
// and the byte-sized and int32 columns are fixed-width; a []uint64 column,
// the bulk of an image, is packed — a bitmap of its nonzero elements, then
// those values at the width of the widest — and has exactly one accepted
// encoding, so an image re-saves to the same bytes. Components use neither
// Writer nor Reader directly: each has one
// State(*Coder) walk over its fields (coder.go), and a Coder bound to a
// Writer or a Reader runs that walk in either direction, so the two
// directions share one field order by construction; the equivalence matrix
// in internal/sim checks the semantics.
//
// Sections give the stream a skippable, length-prefixed coarse structure:
// a reader that does not understand (or does not want) a section can skip
// it wholesale, which is how optional mechanism state (CLIP, Hermes,
// throttlers) stays forward-compatible with configs that lack it.
//
// Error handling is sticky on both sides: the first failure latches and
// every subsequent call is a cheap no-op, so State bodies stay free of
// error plumbing and the caller checks once at the end. A Reader never
// panics on truncated or corrupt input — it latches ErrCorrupt — which the
// fuzz tests pin down.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Magic identifies a snapshot stream ("CLPS" | version byte appended).
const Magic = 0x43_4C_50_53 // "CLPS"

// Version is the current format version. Bump on any layout change; old
// versions are rejected at Open (checkpoints are cheap to regenerate, so
// there is no migration machinery).
const Version = 7

// ErrCorrupt is latched by a Reader on truncated or malformed input.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated stream")

// MaxLen bounds every decoded element count, and is the cap a list passes to
// Coder.Len when no configuration bounds its length. What actually limits
// such a list is the stream: a count whose elements could not fit in the
// bytes that remain is refused, so a corrupt length prefix cannot drive a
// giant allocation before the per-element reads fail.
const MaxLen = 1 << 28

// Writer serializes into an in-memory buffer.
type Writer struct {
	buf    []byte
	bitmap []byte // scratch: the bitmap of the column U64s is packing
	err    error
}

// NewWriter returns a Writer with the magic+version header already emitted.
func NewWriter() *Writer { return NewWriterSize(1 << 16) }

// NewWriterSize is NewWriter with the buffer's initial capacity given: a
// caller that knows roughly how long its stream will be saves the copies of
// growing there (the buffer still grows past a low estimate).
func NewWriterSize(capacity int) *Writer {
	if capacity < 8 {
		capacity = 8
	}
	w := &Writer{buf: make([]byte, 0, capacity)}
	w.U32(Magic)
	w.U32(Version)
	return w
}

// Bytes returns the encoded stream and the first latched error, if any.
func (w *Writer) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// Fail latches err (used by components that discover unserializable state,
// e.g. a live NoC packet carrying a closure).
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the latched error.
func (w *Writer) Err() error { return w.err }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// I64 appends an int64 (two's-complement bit pattern).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 appends an int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I8 appends an int8.
func (w *Writer) I8(v int8) { w.U8(uint8(v)) }

// Int appends an int as 64 bits.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64 by bit pattern (exact round-trip, NaN included).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, s...)
}

// window appends n bytes for the caller to fill, growing the buffer at most
// once; nil once an error has latched.
func (w *Writer) window(n int) []byte {
	if w.err != nil {
		return nil
	}
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// column appends the length prefix of an n-element column and returns the
// window its elements, size bytes each, encode into.
func (w *Writer) column(n, size int) []byte {
	w.Int(n)
	return w.window(n * size)
}

// U64s appends a []uint64 (slabs, bitmap words, columns) packed: the count,
// a bitmap of the nonzero elements (bit i%8 of byte i/8), one byte giving
// the width in bytes of the widest value, then each nonzero value in that
// many little-endian bytes. Most of an image's words are zero or small.
//
// A first pass builds the bitmap in the Writer's scratch and finds the
// width, which sizes the column's one window; a second visits only the
// flagged elements. Each value is stored as a whole word and the cursor
// advances by the width, so the next store overwrites the zero high bytes,
// and the last spills into 8 bytes reserved past the window's end.
func (w *Writer) U64s(vs []uint64) {
	mapLen := (len(vs) + 7) / 8
	w.bitmap = slices.Grow(w.bitmap[:0], mapLen)[:mapLen]
	var or uint64
	full := len(vs) / 8
	for i := range full {
		c := vs[8*i : 8*i+8 : 8*i+8]
		or |= c[0] | c[1] | c[2] | c[3] | c[4] | c[5] | c[6] | c[7]
		w.bitmap[i] = uint8(nonzero(c[0]) | nonzero(c[1])<<1 | nonzero(c[2])<<2 | nonzero(c[3])<<3 |
			nonzero(c[4])<<4 | nonzero(c[5])<<5 | nonzero(c[6])<<6 | nonzero(c[7])<<7)
	}
	if full < mapLen {
		var m uint64
		for j, v := range vs[8*full:] {
			or |= v
			m |= nonzero(v) << j
		}
		w.bitmap[full] = uint8(m)
	}
	count := 0
	for _, m := range w.bitmap {
		count += bits.OnesCount8(m)
	}
	width := (bits.Len64(or) + 7) / 8
	w.Int(len(vs))
	b := w.window(mapLen + 1 + count*width + 8)
	if b == nil {
		return
	}
	w.buf = w.buf[:len(w.buf)-8]
	copy(b, w.bitmap)
	b[mapLen] = uint8(width)
	at := mapLen + 1
	for i, m := range w.bitmap {
		for ; m != 0; m &= m - 1 {
			binary.LittleEndian.PutUint64(b[at:], vs[8*i+bits.TrailingZeros8(m)])
			at += width
		}
	}
}

// nonzero is 1 for a nonzero v and 0 for zero, without a branch.
func nonzero(v uint64) uint64 { return (v | -v) >> 63 }

// U8s appends a length-prefixed []uint8 column.
func (w *Writer) U8s(vs []uint8) {
	copy(w.column(len(vs), 1), vs)
}

// I32s appends a length-prefixed []int32 column.
func (w *Writer) I32s(vs []int32) {
	if b := w.column(len(vs), 4); b != nil {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	}
}

// I8s appends a length-prefixed []int8 table.
func (w *Writer) I8s(vs []int8) {
	if b := w.column(len(vs), 1); b != nil {
		for i, v := range vs {
			b[i] = uint8(v)
		}
	}
}

// Bools appends a length-prefixed []bool, one byte an element.
func (w *Writer) Bools(vs []bool) {
	if b := w.column(len(vs), 1); b != nil {
		for i, v := range vs {
			b[i] = 0
			if v {
				b[i] = 1
			}
		}
	}
}

// Section brackets fn's output with a tag and a length prefix, so readers
// can verify they are aligned on the same section (Tag) and skip sections
// they do not consume (SkipSection). The length is patched in after fn runs.
func (w *Writer) Section(tag string, fn func()) {
	w.String(tag)
	if w.err != nil {
		return
	}
	at := len(w.buf)
	w.U64(0) // length placeholder
	fn()
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[at:], uint64(len(w.buf)-at-8))
}

// Reader decodes a stream produced by Writer. All methods are safe on
// corrupt input: the first out-of-bounds or malformed read latches
// ErrCorrupt and subsequent calls return zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf, checking the magic+version header.
func NewReader(buf []byte) (*Reader, error) {
	r := &Reader{buf: buf}
	if m := r.U32(); m != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x: %w", m, ErrCorrupt)
	}
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Fail latches err.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// corrupt latches ErrCorrupt with context.
func (r *Reader) corrupt(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: reading %s at offset %d: %w", what, r.off, ErrCorrupt)
	}
}

// Done reports whether the stream was fully consumed without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes: %w", len(r.buf)-r.off, ErrCorrupt)
	}
	return nil
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.corrupt("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.corrupt("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.corrupt("u16")
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.corrupt("u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I8 reads an int8.
func (r *Reader) I8() int8 { return int8(r.U8()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Bool reads a bool; any byte other than 0/1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.corrupt("bool")
		return false
	}
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// sliceLen validates a decoded element count against the remaining input
// (elemSize is a lower bound on the encoded size per element).
func (r *Reader) sliceLen(what string, elemSize int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > MaxLen || n*elemSize > len(r.buf)-r.off {
		r.corrupt(what)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen("string", 1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// window consumes the next n bytes and returns them; nil, with ErrCorrupt
// latched, when the stream is shorter.
func (r *Reader) window(what string, n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		r.corrupt(what)
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

// column reads the length prefix of a column that must hold exactly want
// elements (columns and slabs are geometry-fixed, so a length mismatch means
// the snapshot belongs to a different configuration) and returns the window
// its elements, size bytes each, decode from; nil once an error has latched.
func (r *Reader) column(what string, want, size int) []byte {
	n := r.sliceLen(what, size)
	if r.err != nil {
		return nil
	}
	if n != want {
		r.corrupt(what + " length")
		return nil
	}
	return r.window(what, n*size)
}

// U64s reads a packed []uint64 (see Writer.U64s) into dst, which must have
// exactly the encoded count: it clears dst and scatters the nonzero values.
// Only the encoding Writer.U64s produces is accepted, so loading and saving
// again returns the same bytes: a width above 8 or other than the widest
// value needs, a flagged element that decodes to zero and a bitmap bit set
// past the count are all corrupt.
func (r *Reader) U64s(dst []uint64) {
	const what = "u64 slice"
	if n := r.Int(); r.err == nil && n != len(dst) {
		r.corrupt(what + " length")
	}
	mapLen := (len(dst) + 7) / 8
	if r.err != nil || mapLen+1 > len(r.buf)-r.off {
		r.corrupt(what)
		return
	}
	head := r.buf[r.off : r.off+mapLen+1]
	width := int(head[mapLen])
	if width > 8 {
		r.corrupt(what + " width")
		return
	}
	if tail := len(dst) % 8; tail != 0 && head[mapLen-1]>>tail != 0 {
		r.corrupt(what + " bitmap padding")
		return
	}
	count := 0
	for _, m := range head[:mapLen] {
		count += bits.OnesCount8(m)
	}
	b := r.window(what, mapLen+1+count*width)
	if b == nil {
		return
	}
	clear(dst)
	// A value is one word load masked to width (a zero width masks to 0),
	// except within a word of the stream's end, where it is read bytewise.
	mask := ^uint64(0) >> (64 - 8*width)
	at := r.off - count*width // the first value's offset in r.buf
	var or uint64
	for i, m := range b[:mapLen] {
		for ; m != 0; m &= m - 1 {
			var v uint64
			if at+8 <= len(r.buf) {
				v = binary.LittleEndian.Uint64(r.buf[at:]) & mask
			} else {
				for k := width - 1; k >= 0; k-- {
					v = v<<8 | uint64(r.buf[at+k])
				}
			}
			if v == 0 {
				r.corrupt(what + " zero value")
				return
			}
			dst[8*i+bits.TrailingZeros8(m)] = v
			or |= v
			at += width
		}
	}
	if (bits.Len64(or)+7)/8 != width {
		r.corrupt(what + " width")
	}
}

// U8s reads a length-prefixed []uint8 into dst (exact length).
func (r *Reader) U8s(dst []uint8) {
	copy(dst, r.column("u8 slice", len(dst), 1))
}

// I32s reads a length-prefixed []int32 into dst (exact length).
func (r *Reader) I32s(dst []int32) {
	if b := r.column("i32 slice", len(dst), 4); b != nil {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
}

// I8s reads a length-prefixed []int8 into dst (exact length).
func (r *Reader) I8s(dst []int8) {
	if b := r.column("i8 slice", len(dst), 1); b != nil {
		for i := range dst {
			dst[i] = int8(b[i])
		}
	}
}

// Bools reads a length-prefixed []bool into dst (exact length); any byte
// other than 0/1 is corrupt.
func (r *Reader) Bools(dst []bool) {
	if b := r.column("bool slice", len(dst), 1); b != nil {
		for i := range dst {
			if b[i] > 1 {
				r.corrupt("bool")
				return
			}
			dst[i] = b[i] == 1
		}
	}
}

// Section checks the next section's tag and runs fn over its body,
// verifying fn consumed exactly the recorded length.
func (r *Reader) Section(tag string, fn func()) {
	if got := r.String(); r.err == nil && got != tag {
		r.Fail(fmt.Errorf("snapshot: section %q, expected %q: %w", got, tag, ErrCorrupt))
	}
	n := r.U64()
	if r.err != nil {
		return
	}
	if n > uint64(len(r.buf)-r.off) {
		r.corrupt("section length")
		return
	}
	end := r.off + int(n)
	fn()
	if r.err == nil && r.off != end {
		r.Fail(fmt.Errorf("snapshot: section %q consumed %d of %d bytes: %w",
			tag, int(n)-(end-r.off), n, ErrCorrupt))
	}
}

// NextSection peeks the next section tag without consuming anything.
func (r *Reader) NextSection() (string, bool) {
	if r.err != nil {
		return "", false
	}
	saveOff := r.off
	tag := r.String()
	ok := r.err == nil
	r.off, r.err = saveOff, nil
	return tag, ok
}

// SkipSection skips one section wholesale, returning its tag.
func (r *Reader) SkipSection() string {
	tag := r.String()
	n := r.U64()
	if r.err != nil {
		return tag
	}
	if n > uint64(len(r.buf)-r.off) {
		r.corrupt("section length")
		return tag
	}
	r.off += int(n)
	return tag
}
