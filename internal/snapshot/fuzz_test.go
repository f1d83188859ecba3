package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// driveCoder exercises every walk method of a loading Coder against
// arbitrary input, into receivers of arbitrary prior content, with the op
// sequence itself drawn from the input so the fuzzer explores interleavings.
// The contract under test: no method panics, whatever the bytes.
func driveCoder(s *Coder, ops []byte) {
	var (
		u64  uint64
		u32  uint32
		u16  uint16
		u8   uint8
		i64  int64
		i32  int32
		i8   int8
		n    int
		b    bool
		f    float64
		str  string
		list = []uint16{1, 2, 3}
		col  = used(64)
		u8s  = usedBytes[uint8](64)
		i8s  = usedBytes[int8](64)
	)
	for _, op := range ops {
		switch op % 25 {
		case 0:
			s.U64(&u64)
		case 1:
			s.U32(&u32)
		case 2:
			s.U16(&u16)
		case 3:
			s.U8(&u8)
		case 4:
			s.I64(&i64)
		case 5:
			s.I32(&i32)
		case 6:
			s.I8(&i8)
		case 7:
			s.Int(&n)
		case 8:
			s.Bool(&b)
		case 9:
			s.U64s(col[:op%64]) // packed columns of many lengths
		case 10:
			s.String(&str)
		case 11:
			s.F64(&f)
		case 12:
			s.U8s(u8s[:op%64]) // packed byte columns of many lengths
		case 13:
			s.I32s(make([]int32, 2))
		case 14:
			s.I8s(i8s[:op%64])
		case 15:
			s.Bools(make([]bool, 2))
		case 16:
			s.U8s(make([]uint8, op))
		case 17:
			s.Fixed("fixed", 3)
		case 18:
			s.Kind("kind", op)
		case 19:
			if got := s.Len("len", 0, 1<<10, 8); got < 0 || got > 1<<10 {
				panic("Len returned a count outside its bounds")
			}
		case 20:
			for i := range Slice(s, "slice", &list, MaxLen, 2) {
				s.U16(&list[i])
			}
		case 21:
			s.Section("s", func() { s.U64(&u64) })
		case 22:
			s.SkipSection()
		case 23:
			s.Corrupt("op %d", op)
		case 24:
			_ = s.Loading()
		}
	}
}

// FuzzReader feeds arbitrary bytes through every walk method of a loading
// Coder: it must fail with a latched ErrCorrupt on garbage, never panic and
// never allocate a slice larger than the input could justify.
func FuzzReader(f *testing.F) {
	w := NewSaver(0)
	u, tag := uint64(42), "tag"
	w.U64(&u)
	w.String(&tag)
	w.Section("s", func() { w.U64(&u) })
	valid, _ := w.Bytes()
	f.Add(valid, []byte{0, 10, 21})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0x53, 0x50, 0x4c, 0x43, 1, 0, 0, 0}, []byte{9, 9, 9})
	w = NewSaver(0)
	w.U64s([]uint64{0, 0x1234, 0, 7, ^uint64(0), 1})
	packed, _ := w.Bytes()
	f.Add(packed, []byte{134}) // op 134 reads a six-element column
	w = NewSaver(0)
	w.U8s([]uint8{0, 3, 0, 0, 0, 0, 0, 0, 0xff, 1})
	w.I8s([]int8{-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	packed, _ = w.Bytes()
	f.Add(packed, []byte{137, 89}) // a ten-element u8 column, a 14-element i8 one
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r, err := NewLoader(data)
		if err != nil {
			return // short or wrong-magic input is refused by NewLoader
		}
		driveCoder(r, ops)
		if err := r.Done(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a loading Coder latched %v, want ErrCorrupt", err)
		}
	})
}

// roundTrip is the value set FuzzRoundTrip sends through the codec.
type roundTrip struct {
	u    uint64
	i    int64
	s    string
	b    []byte
	flag bool
	fl   float64
	us   [2]uint64
	col  []uint64
	bs   [2]bool
	u8s  []uint8 // col's low bytes, as a packed byte column
	i8s  []int8  // and as signed bytes
	list []uint8 // b again, as a variable-length list of one-byte elements
	tail uint32
}

// walk visits every field of v.
func (v *roundTrip) walk(s *Coder) {
	s.U64(&v.u)
	s.I64(&v.i)
	s.String(&v.s)
	s.U8s(v.b)
	s.Bool(&v.flag)
	s.F64(&v.fl)
	s.Section("sec", func() {
		s.U64s(v.us[:])
		s.U64s(v.col)
		s.Bools(v.bs[:])
		s.U8s(v.u8s)
		s.I8s(v.i8s)
	})
	for i := range Slice(s, "list", &v.list, MaxLen, 1) {
		s.U8(&v.list[i])
	}
	s.Fixed("fixed", 3)
	s.Kind("kind", 7)
	s.U32(&v.tail)
}

// column draws a word column from seed and shape: up to 199 elements, a
// share of zeros from none to all, and each other value of a random width
// from one byte up to a maximum that shape sets between 0 (an all-zero
// column) and 8 bytes.
func column(seed, shape uint64) []uint64 {
	x := seed ^ shape
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	col := make([]uint64, shape%200)
	zeroPct, width := shape>>8%101, shape>>16%9
	for i := range col {
		if width > 0 && next()%100 >= zeroPct {
			col[i] = next() >> (64 - 8*(1+next()%width))
		}
	}
	return col
}

// used returns an n-element receiver that already holds nonzero values.
func used(n int) []uint64 {
	col := make([]uint64, n)
	for i := range col {
		col[i] = ^uint64(i)
	}
	return col
}

// usedBytes is used for a byte column.
func usedBytes[T ~uint8 | ~int8](n int) []T {
	col := make([]T, n)
	for i := range col {
		col[i] = T(^uint8(i))
	}
	return col
}

// lowBytes returns the low byte of each of col's words.
func lowBytes[T ~uint8 | ~int8](col []uint64) []T {
	out := make([]T, len(col))
	for i, v := range col {
		out[i] = T(v)
	}
	return out
}

// FuzzRoundTrip saves fuzz-chosen values, among them a word column of
// fuzz-chosen length, zero density and value widths, and requires a loading
// Coder to return them exactly into used receivers, with the stream fully
// consumed, and the loaded values to save again to the same bytes; then
// requires every strict prefix of the stream to be refused.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(-9), "hello", []byte{1, 2, 3}, true, 3.25, uint64(0x04_28_40))
	f.Add(^uint64(0), int64(0), "", []byte(nil), false, -0.0, uint64(0))
	f.Add(uint64(7), int64(3), "x", []byte{0}, true, 1.0, uint64(0x08_00_c7))
	f.Fuzz(func(t *testing.T, u uint64, i int64, s string, b []byte, flag bool, fl float64, shape uint64) {
		col := column(u, shape)
		in := roundTrip{u: u, i: i, s: s, b: b, flag: flag, fl: fl,
			us: [2]uint64{u, u ^ 1}, col: col, bs: [2]bool{flag, !flag},
			u8s: lowBytes[uint8](col), i8s: lowBytes[int8](column(^u, shape)), list: b, tail: uint32(u)}
		w := NewSaver(0)
		in.walk(w)
		enc, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}

		out := roundTrip{b: make([]byte, len(b)), col: used(len(col)), list: []uint8{9, 9},
			u8s: usedBytes[uint8](len(col)), i8s: usedBytes[int8](len(col))}
		r, err := NewLoader(enc)
		if err != nil {
			t.Fatal(err)
		}
		out.walk(r)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		again := NewSaver(0)
		out.walk(again)
		if aenc, err := again.Bytes(); err != nil || !bytes.Equal(aenc, enc) {
			t.Fatalf("re-saving the loaded values: err %v, stream equal to the loaded one: %v", err, bytes.Equal(aenc, enc))
		}
		if out.fl != in.fl && !(out.fl != out.fl && in.fl != in.fl) { // NaN-safe
			t.Fatalf("f64 %v != %v", out.fl, in.fl)
		}
		in.fl, out.fl = 0, 0 // DeepEqual has no NaN == NaN
		if len(b) == 0 {
			in.b, in.list, out.b, out.list = nil, nil, nil, nil
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("loaded %+v, want %+v", out, in)
		}

		// Every strict prefix must fail somewhere — a truncated stream can
		// never be walked to Done without a latched error.
		for cut := 0; cut < len(enc); cut++ {
			tr, err := NewLoader(enc[:cut])
			if err != nil {
				continue
			}
			out := roundTrip{b: make([]byte, len(b)), col: used(len(col)),
				u8s: usedBytes[uint8](len(col)), i8s: usedBytes[int8](len(col))}
			out.walk(tr)
			if !errors.Is(tr.Done(), ErrCorrupt) {
				t.Fatalf("truncation at %d/%d walked to completion", cut, len(enc))
			}
		}
	})
}

// TestU64sLayout pins the packed encoding of a word column, and that a used
// receiver takes back exactly the encoded values.
func TestU64sLayout(t *testing.T) {
	for _, tc := range []struct {
		col  []uint64
		body []byte // after the count: bitmap, width, values
	}{
		{[]uint64{}, []byte{0}},
		{[]uint64{0, 0, 0}, []byte{0, 0}},
		{[]uint64{0, 0x1234, 0, 7}, []byte{0b1010, 2, 0x34, 0x12, 0x07, 0x00}},
		{[]uint64{1, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 63},
			[]byte{0b1, 0b10, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80}},
	} {
		w := NewSaver(0)
		w.U64s(tc.col)
		got, _ := w.Bytes()
		if want := crafted(len(tc.col), tc.body...); !bytes.Equal(got, want) {
			t.Errorf("%v encodes to % x, want % x", tc.col, got, want)
		}
		r, _ := NewLoader(got)
		dst := used(len(tc.col))
		if r.U64s(dst); r.Done() != nil || !slices.Equal(dst, tc.col) {
			t.Errorf("%v decodes to %v (%v)", tc.col, dst, r.Done())
		}
	}
}

// crafted returns a stream holding a count and then body's bytes verbatim.
func crafted(count int, body ...byte) []byte {
	w := NewSaver(0)
	w.Int(&count)
	for i := range body {
		w.U8(&body[i])
	}
	enc, _ := w.Bytes()
	return enc
}

// TestU64sRefusesNoncanonical: a packed column has one accepted encoding,
// so every other stream that would decode is refused with ErrCorrupt, and
// none panics.
func TestU64sRefusesNoncanonical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int // the receiver's length
		stream []byte
	}{
		{"width above the element size", 1, crafted(1, 0b1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"width wider than the widest value needs", 2, crafted(2, 0b11, 2, 5, 0, 7, 0)},
		{"width narrower than the widest value needs", 1, crafted(1, 0b1, 0)},
		{"width on an all-zero column", 3, crafted(3, 0, 1)},
		{"flagged element decodes to zero", 2, crafted(2, 0b11, 1, 5, 0)},
		{"bitmap bit set past the count", 3, crafted(3, 0b1001, 1, 5, 6)},
		// The body is a valid three-element column.
		{"count above the receiver's", 3, crafted(4, 0b11, 1, 5, 6)},
		{"count below the receiver's", 3, crafted(2, 0b11, 1, 5, 6)},
		{"values cut short", 2, crafted(2, 0b11, 1, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewLoader(tc.stream)
			if err != nil {
				t.Fatal(err)
			}
			if r.U64s(used(tc.n)); !errors.Is(r.Err(), ErrCorrupt) {
				t.Errorf("err %v, want ErrCorrupt", r.Err())
			}
		})
	}
}

// TestBytesLayout pins the packed encoding of a byte column, which is the
// word column's without the width byte, and that a used receiver takes back
// exactly the encoded values.
func TestBytesLayout(t *testing.T) {
	for _, tc := range []struct {
		col  []int8
		body []byte // after the count: bitmap, values
	}{
		{[]int8{}, nil},
		{[]int8{0, 0, 0}, []byte{0}},
		{[]int8{0, -1, 0, 7}, []byte{0b1010, 0xff, 0x07}},
		{[]int8{1, 0, 0, 0, 0, 0, 0, 0, 0, -128}, []byte{0b1, 0b10, 1, 0x80}},
		{[]int8{1, 2, 3, 4, 5, 6, 7, -1, 0, 9}, []byte{0xff, 0b10, 1, 2, 3, 4, 5, 6, 7, 0xff, 9}},
	} {
		want := crafted(len(tc.col), tc.body...)
		w := NewSaver(0)
		if w.I8s(tc.col); !bytes.Equal(w.buf, want) {
			t.Errorf("%v encodes to % x, want % x", tc.col, w.buf, want)
		}
		u := make([]uint8, len(tc.col))
		for i, v := range tc.col {
			u[i] = uint8(v)
		}
		w = NewSaver(0)
		if w.U8s(u); !bytes.Equal(w.buf, want) {
			t.Errorf("%v as u8 encodes to % x, want % x", u, w.buf, want)
		}
		r, _ := NewLoader(want)
		dst := usedBytes[int8](len(tc.col))
		if r.I8s(dst); r.Done() != nil || !slices.Equal(dst, tc.col) {
			t.Errorf("%v decodes to %v (%v)", tc.col, dst, r.Done())
		}
		r, _ = NewLoader(want)
		udst := usedBytes[uint8](len(tc.col))
		if r.U8s(udst); r.Done() != nil || !slices.Equal(udst, u) {
			t.Errorf("%v decodes to %v (%v)", u, udst, r.Done())
		}
	}
}

// TestBytesRefusesNoncanonical: a packed byte column has one accepted
// encoding too.
func TestBytesRefusesNoncanonical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int // the receiver's length
		stream []byte
	}{
		{"flagged element is a zero byte", 2, crafted(2, 0b11, 5, 0)},
		{"zero byte in a full group", 8, crafted(8, 0xff, 1, 2, 3, 0, 5, 6, 7, 8)},
		{"bitmap bit set past the count", 3, crafted(3, 0b1001, 5, 6)},
		// The body is a valid three-element column.
		{"count above the receiver's", 3, crafted(4, 0b11, 5, 6)},
		{"count below the receiver's", 3, crafted(2, 0b11, 5, 6)},
		{"values cut short", 2, crafted(2, 0b11, 5)},
		{"bitmap cut short", 9, crafted(9, 0b1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, walk := range []func(*Coder){
				func(r *Coder) { r.U8s(usedBytes[uint8](tc.n)) },
				func(r *Coder) { r.I8s(usedBytes[int8](tc.n)) },
			} {
				r, err := NewLoader(tc.stream)
				if err != nil {
					t.Fatal(err)
				}
				if walk(r); !errors.Is(r.Err(), ErrCorrupt) {
					t.Errorf("err %v, want ErrCorrupt", r.Err())
				}
			}
		})
	}
}

// TestReaderCorruptErrors pins the error taxonomy: malformed input latches
// ErrCorrupt (wrapped, so errors.Is works) and subsequent reads are no-ops.
func TestReaderCorruptErrors(t *testing.T) {
	w := NewSaver(0)
	flag := true
	w.Bool(&flag)
	enc, _ := w.Bytes()
	enc = append(enc[:len(enc)-1], 7) // bool byte must be 0 or 1

	r, err := NewLoader(enc)
	if err != nil {
		t.Fatal(err)
	}
	r.Bool(&flag)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("bad bool byte: err=%v, want ErrCorrupt", r.Err())
	}
	v := uint64(9)
	if r.U64(&v); v != 0 {
		t.Fatalf("read after latched error returned %d", v)
	}
}

// zeroed returns a walk of a receiver prefilled with v, reporting whether
// the receiver holds zero after it.
func zeroed[T comparable](walk func(*Coder, *T), v T) func(*Coder) bool {
	return func(s *Coder) bool {
		var zero T
		x := v
		walk(s, &x)
		return x == zero
	}
}

// TestScalarsZeroOnError: every scalar walk that loads from a stream cut
// one byte short latches ErrCorrupt and leaves zero in its receiver,
// whatever the receiver held before.
func TestScalarsZeroOnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		walk func(*Coder) bool
	}{
		{"U64", zeroed((*Coder).U64, ^uint64(0))},
		{"U32", zeroed((*Coder).U32, uint32(0xdead))},
		{"U16", zeroed((*Coder).U16, uint16(0xbeef))},
		{"U8", zeroed((*Coder).U8, uint8(7))},
		{"I64", zeroed((*Coder).I64, int64(-3))},
		{"I32", zeroed((*Coder).I32, int32(-3))},
		{"I8", zeroed((*Coder).I8, int8(-3))},
		{"Int", zeroed((*Coder).Int, -3)},
		{"Bool", zeroed((*Coder).Bool, true)},
		{"F64", zeroed((*Coder).F64, 2.5)},
		{"String", zeroed((*Coder).String, "snapshot")},
	} {
		w := NewSaver(0)
		tc.walk(w)
		enc, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewLoader(enc[:len(enc)-1])
		if err != nil {
			t.Fatal(err)
		}
		if zero := tc.walk(r); !zero || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s over a truncated stream: receiver zero %v, err %v; want zero and ErrCorrupt", tc.name, zero, r.Err())
		}
	}
}

// TestReaderRejectsBadHeader: wrong magic and future versions are refused
// by NewLoader.
func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewLoader([]byte("nonsense")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	enc, _ := NewSaver(0).Bytes()
	enc[4] = Version + 1
	if _, err := NewLoader(enc); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestReaderHugeLengthRejected: a corrupt length prefix must be refused
// before it drives an allocation.
func TestReaderHugeLengthRejected(t *testing.T) {
	w := NewSaver(0)
	n := MaxLen + 1
	w.Int(&n)
	enc, _ := w.Bytes()
	r, err := NewLoader(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := "prior"
	if r.String(&got); got != "" {
		t.Fatalf("oversized length produced %d bytes", len(got))
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", r.Err())
	}
}

// TestWriterSizedSameBytes: the capacity a saving Coder starts with changes
// how often its buffer grows, never what it holds — a stream saved into a
// buffer that fits is not reallocated, one saved into a buffer far too small
// still comes out whole.
func TestWriterSizedSameBytes(t *testing.T) {
	save := func(w *Coder) []byte {
		fp := "fingerprint"
		w.String(&fp)
		w.Section("body", func() {
			for i := uint64(0); i < 5000; i++ {
				v := i * 0x9e3779b97f4a7c15
				w.U64(&v)
			}
		})
		b, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := save(NewSaver(1 << 16))
	for _, capacity := range []int{0, 1, len(want) - 1, len(want), 2 * len(want)} {
		got := save(NewSaver(capacity))
		if !bytes.Equal(got, want) {
			t.Fatalf("capacity %d changed the stream", capacity)
		}
		if capacity >= len(want) && cap(got) != capacity {
			t.Fatalf("capacity %d sufficed but the buffer was reallocated to %d", capacity, cap(got))
		}
	}
}
