package snapshot

import (
	"bytes"
	"errors"
	"reflect"
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
			r.Bytes8()
		case 9:
			r.U64sVar()
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
	)
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
			s.U64s(make([]uint64, 3))
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
		s.Bools(v.bs[:])
	})
	for i := range Slice(s, "list", &v.list, MaxLen, 1) {
		s.U8(&v.list[i])
	}
	s.Fixed("fixed", 3)
	s.Kind("kind", 7)
	s.U32(&v.tail)
}

// FuzzRoundTrip writes fuzz-chosen values through the Writer and requires
// the Reader to return them exactly, with the stream fully consumed; then
// sends the same values through a saving Coder, which must produce the same
// bytes, and a loading one, which must return them.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(-9), "hello", []byte{1, 2, 3}, true, 3.25)
	f.Add(^uint64(0), int64(0), "", []byte(nil), false, -0.0)
	f.Fuzz(func(t *testing.T, u uint64, i int64, s string, b []byte, flag bool, fl float64) {
		w := NewWriter()
		w.U64(u)
		w.I64(i)
		w.String(s)
		w.Bytes8(b)
		w.Bool(flag)
		w.F64(fl)
		w.Section("sec", func() {
			w.U64s([]uint64{u, u ^ 1})
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
		if got := r.Bytes8(); !bytes.Equal(got, b) {
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
			us: [2]uint64{u, u ^ 1}, bs: [2]bool{flag, !flag}, list: b, tail: uint32(u)}
		cw := NewWriter()
		in.walk(cw.Coder())
		if cenc, err := cw.Bytes(); err != nil || !bytes.Equal(cenc, enc) {
			t.Fatalf("saving Coder: err %v, stream equal to the Writer's: %v", err, bytes.Equal(cenc, enc))
		}
		out := roundTrip{b: make([]byte, len(b)), list: []uint8{9, 9}}
		cr, err := NewReader(enc)
		if err != nil {
			t.Fatal(err)
		}
		out.walk(cr.Coder())
		if err := cr.Done(); err != nil {
			t.Fatal(err)
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
			tr.Bytes8()
			tr.Bool()
			tr.F64()
			tr.Section("sec", func() {
				r2 := make([]uint64, 2)
				tr.U64s(r2)
				tr.Bools(make([]bool, 2))
			})
			for n := tr.Int(); n > 0 && tr.Err() == nil; n-- {
				tr.U8()
			}
			tr.Int()
			tr.U8()
			tr.U32()
			if tr.Done() == nil {
				t.Fatalf("truncation at %d/%d read to completion", cut, len(enc))
			}
			tr, _ = NewReader(enc[:cut])
			out := roundTrip{b: make([]byte, len(b))}
			out.walk(tr.Coder())
			if !errors.Is(tr.Done(), ErrCorrupt) {
				t.Fatalf("truncation at %d/%d walked to completion by a loading Coder", cut, len(enc))
			}
		}
	})
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
	if got := r.Bytes8(); got != nil {
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
