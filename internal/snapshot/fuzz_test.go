package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// drive exercises every Reader accessor against arbitrary input, with the
// op sequence itself drawn from the input so the fuzzer explores interleavings.
// The contract under test: no accessor panics, whatever the bytes.
func drive(r *Reader, ops []byte) {
	for _, op := range ops {
		switch op % 16 {
		case 0:
			r.U64()
		case 1:
			r.U32()
		case 2:
			r.U16()
		case 3:
			r.U8()
		case 4:
			r.I64()
		case 5:
			r.Bool()
		case 6:
			r.F64()
		case 7:
			_ = r.String()
		case 8:
			r.I32s(make([]int32, 2))
		case 9:
			r.U64s(make([]uint64, op%67)) // packed columns of many lengths
		case 10:
			r.U64s(make([]uint64, 3))
		case 11:
			r.U8s(make([]uint8, 5))
		case 12:
			r.Bools(make([]bool, 2))
		case 13:
			r.Section("s", func() { r.U64() })
		case 14:
			r.SkipSection()
		case 15:
			r.NextSection()
		}
	}
	_ = r.Done()
}

// driveCoder is drive for a loading Coder: every walk method against
// arbitrary input, into receivers of arbitrary prior content.
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
		col  = make([]uint64, 64)
	)
	for i := range col {
		col[i] = ^uint64(i)
	}
	for _, op := range ops {
		switch op % 24 {
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
			s.F64(&f)
		case 10:
			s.String(&str)
		case 11:
			s.U64s(col[:op%64])
		case 12:
			s.U8s(make([]uint8, 5))
		case 13:
			s.I32s(make([]int32, 2))
		case 14:
			s.I8s(make([]int8, 4))
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
			s.Corrupt("op %d", op)
		case 23:
			_ = s.Loading()
		}
	}
}

// FuzzReader feeds arbitrary bytes through every accessor, of a Reader and
// of a loading Coder: both must fail with a latched ErrCorrupt on garbage,
// never panic and never allocate a slice larger than the input could
// justify.
func FuzzReader(f *testing.F) {
	w := NewWriter()
	w.U64(42)
	w.String("tag")
	w.Section("base", func() { w.Bools([]bool{true, false}) })
	valid, _ := w.Bytes()
	f.Add(valid, []byte{0, 7, 13})
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0x53, 0x50, 0x4c, 0x43, 1, 0, 0, 0}, []byte{9, 9, 9})
	w = NewWriter()
	w.U64s([]uint64{0, 0x1234, 0, 7, ^uint64(0), 1})
	packed, _ := w.Bytes()
	f.Add(packed, []byte{73}) // op 73 reads a six-element column
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r, err := NewReader(data)
		if err != nil {
			return // short or wrong-magic input is rejected at Open
		}
		drive(r, ops)

		r, _ = NewReader(data)
		driveCoder(r.Coder(), ops)
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
	list []uint8 // b again, as a variable-length list of one-byte elements
	tail uint32
}

// walk visits v in the order FuzzRoundTrip's Writer lays it out.
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

// FuzzRoundTrip writes fuzz-chosen values, among them a word column of
// fuzz-chosen length, zero density and value widths, through the Writer and
// requires the Reader to return them exactly, with the stream fully
// consumed; then sends the same values through a saving Coder, which must
// produce the same bytes, and a loading one into used receivers, which must
// return them and save them again to the same bytes.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(-9), "hello", []byte{1, 2, 3}, true, 3.25, uint64(0x04_28_40))
	f.Add(^uint64(0), int64(0), "", []byte(nil), false, -0.0, uint64(0))
	f.Add(uint64(7), int64(3), "x", []byte{0}, true, 1.0, uint64(0x08_00_c7))
	f.Fuzz(func(t *testing.T, u uint64, i int64, s string, b []byte, flag bool, fl float64, shape uint64) {
		col := column(u, shape)
		w := NewWriter()
		w.U64(u)
		w.I64(i)
		w.String(s)
		w.U8s(b)
		w.Bool(flag)
		w.F64(fl)
		w.Section("sec", func() {
			w.U64s([]uint64{u, u ^ 1})
			w.U64s(col)
			w.Bools([]bool{flag, !flag})
		})
		w.Int(len(b))
		for _, x := range b {
			w.U8(x)
		}
		w.Int(3)
		w.U8(7)
		w.U32(uint32(u))
		enc, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}

		r, err := NewReader(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.U64(); got != u {
			t.Fatalf("u64: %d != %d", got, u)
		}
		if got := r.I64(); got != i {
			t.Fatalf("i64: %d != %d", got, i)
		}
		if got := r.String(); got != s {
			t.Fatalf("string: %q != %q", got, s)
		}
		got := make([]byte, len(b))
		if r.U8s(got); !bytes.Equal(got, b) {
			t.Fatalf("bytes: %v != %v", got, b)
		}
		if got := r.Bool(); got != flag {
			t.Fatalf("bool: %v != %v", got, flag)
		}
		if got := r.F64(); got != fl && !(got != got && fl != fl) { // NaN-safe
			t.Fatalf("f64: %v != %v", got, fl)
		}
		r.Section("sec", func() {
			us := make([]uint64, 2)
			r.U64s(us)
			if us[0] != u || us[1] != u^1 {
				t.Fatalf("u64s: %v", us)
			}
			got := used(len(col))
			if r.U64s(got); !slices.Equal(got, col) {
				t.Fatalf("column: %v != %v", got, col)
			}
			bs := make([]bool, 2)
			r.Bools(bs)
			if bs[0] != flag || bs[1] == flag {
				t.Fatalf("bools: %v", bs)
			}
		})
		if n := r.Int(); n != len(b) {
			t.Fatalf("list length: %d != %d", n, len(b))
		}
		for _, x := range b {
			if got := r.U8(); got != x {
				t.Fatalf("list element: %d != %d", got, x)
			}
		}
		if n, k, tail := r.Int(), r.U8(), r.U32(); n != 3 || k != 7 || tail != uint32(u) {
			t.Fatalf("fixed, kind, tail: %d %d %d", n, k, tail)
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}

		// The same values through a saving Coder, then a loading one.
		in := roundTrip{u: u, i: i, s: s, b: b, flag: flag, fl: fl,
			us: [2]uint64{u, u ^ 1}, col: col, bs: [2]bool{flag, !flag}, list: b, tail: uint32(u)}
		cw := NewWriter()
		in.walk(cw.Coder())
		if cenc, err := cw.Bytes(); err != nil || !bytes.Equal(cenc, enc) {
			t.Fatalf("saving Coder: err %v, stream equal to the Writer's: %v", err, bytes.Equal(cenc, enc))
		}
		out := roundTrip{b: make([]byte, len(b)), col: used(len(col)), list: []uint8{9, 9}}
		cr, err := NewReader(enc)
		if err != nil {
			t.Fatal(err)
		}
		out.walk(cr.Coder())
		if err := cr.Done(); err != nil {
			t.Fatal(err)
		}
		again := NewWriter()
		out.walk(again.Coder())
		if aenc, err := again.Bytes(); err != nil || !bytes.Equal(aenc, enc) {
			t.Fatalf("re-saving the loaded values: err %v, stream equal to the loaded one: %v", err, bytes.Equal(aenc, enc))
		}
		if out.fl != in.fl && !(out.fl != out.fl && in.fl != in.fl) { // NaN-safe
			t.Fatalf("loading Coder: f64 %v != %v", out.fl, in.fl)
		}
		in.fl, out.fl = 0, 0 // DeepEqual has no NaN == NaN
		if len(b) == 0 {
			in.b, in.list, out.b, out.list = nil, nil, nil, nil
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("loading Coder returned %+v, want %+v", out, in)
		}

		// Every strict prefix must fail somewhere — a truncated stream can
		// never read to Done without a latched error.
		for cut := 0; cut < len(enc); cut++ {
			tr, err := NewReader(enc[:cut])
			if err != nil {
				continue
			}
			tr.U64()
			tr.I64()
			_ = tr.String()
			tr.U8s(make([]byte, len(b)))
			tr.Bool()
			tr.F64()
			tr.Section("sec", func() {
				tr.U64s(make([]uint64, 2))
				tr.U64s(used(len(col)))
				tr.Bools(make([]bool, 2))
			})
			for n := tr.Int(); n > 0 && tr.Err() == nil; n-- {
				tr.U8()
			}
			tr.Int()
			tr.U8()
			tr.U32()
			if !errors.Is(tr.Done(), ErrCorrupt) {
				t.Fatalf("truncation at %d/%d read to completion", cut, len(enc))
			}
			tr, _ = NewReader(enc[:cut])
			out := roundTrip{b: make([]byte, len(b)), col: used(len(col))}
			out.walk(tr.Coder())
			if !errors.Is(tr.Done(), ErrCorrupt) {
				t.Fatalf("truncation at %d/%d walked to completion by a loading Coder", cut, len(enc))
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
		w := NewWriter()
		w.U64s(tc.col)
		got, _ := w.Bytes()
		if want := crafted(len(tc.col), tc.body...); !bytes.Equal(got, want) {
			t.Errorf("%v encodes to % x, want % x", tc.col, got, want)
		}
		r, _ := NewReader(got)
		dst := used(len(tc.col))
		if r.U64s(dst); r.Done() != nil || !slices.Equal(dst, tc.col) {
			t.Errorf("%v decodes to %v (%v)", tc.col, dst, r.Done())
		}
	}
}

// crafted returns a stream holding a count and then body's bytes verbatim.
func crafted(count int, body ...byte) []byte {
	w := NewWriter()
	w.Int(count)
	for _, x := range body {
		w.U8(x)
	}
	enc, _ := w.Bytes()
	return enc
}

// TestU64sRefusesNoncanonical: a packed column has one accepted encoding,
// so every other stream that would decode is refused with ErrCorrupt —
// through a Reader and through a loading Coder — and none panics.
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
			r, err := NewReader(tc.stream)
			if err != nil {
				t.Fatal(err)
			}
			r.U64s(used(tc.n))
			if !errors.Is(r.Err(), ErrCorrupt) {
				t.Errorf("Reader: err %v, want ErrCorrupt", r.Err())
			}
			r, _ = NewReader(tc.stream)
			r.Coder().U64s(used(tc.n))
			if !errors.Is(r.Err(), ErrCorrupt) {
				t.Errorf("loading Coder: err %v, want ErrCorrupt", r.Err())
			}
		})
	}
}

// TestReaderCorruptErrors pins the error taxonomy: malformed input latches
// ErrCorrupt (wrapped, so errors.Is works) and subsequent reads are no-ops.
func TestReaderCorruptErrors(t *testing.T) {
	w := NewWriter()
	w.Bool(true)
	enc, _ := w.Bytes()
	enc = append(enc[:len(enc)-1], 7) // bool byte must be 0 or 1

	r, err := NewReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("bad bool byte: err=%v, want ErrCorrupt", r.Err())
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("read after latched error returned %d", v)
	}
}

// TestReaderRejectsBadHeader: wrong magic and future versions fail at Open.
func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader([]byte("nonsense")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	w := NewWriter()
	enc, _ := w.Bytes()
	enc[4] = Version + 1
	if _, err := NewReader(enc); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestReaderHugeLengthRejected: a corrupt length prefix must be refused
// before it drives an allocation.
func TestReaderHugeLengthRejected(t *testing.T) {
	w := NewWriter()
	w.Int(MaxLen + 1)
	enc, _ := w.Bytes()
	r, err := NewReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "" {
		t.Fatalf("oversized length produced %d bytes", len(got))
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt", r.Err())
	}
}

// TestWriterSizedSameBytes: the capacity a Writer starts with changes how
// often its buffer grows, never what it holds — a stream written into a
// buffer that fits is not reallocated, one written into a buffer far too
// small still comes out whole.
func TestWriterSizedSameBytes(t *testing.T) {
	write := func(w *Writer) []byte {
		w.String("fingerprint")
		w.Section("body", func() {
			for i := uint64(0); i < 5000; i++ {
				w.U64(i * 0x9e3779b97f4a7c15)
			}
		})
		b, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := write(NewWriter())
	for _, capacity := range []int{0, 1, len(want) - 1, len(want), 2 * len(want)} {
		got := write(NewWriterSize(capacity))
		if !bytes.Equal(got, want) {
			t.Fatalf("capacity %d changed the stream", capacity)
		}
		if capacity >= len(want) && cap(got) != capacity {
			t.Fatalf("capacity %d sufficed but the buffer was reallocated to %d", capacity, cap(got))
		}
	}
}
