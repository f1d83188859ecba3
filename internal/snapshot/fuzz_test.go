package snapshot

import (
	"bytes"
	"errors"
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

// FuzzReader feeds arbitrary bytes through every accessor: a Reader must
// fail with a latched error on garbage, never panic and never allocate a
// slice larger than the input could justify.
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
	})
}

// FuzzRoundTrip writes fuzz-chosen values through the Writer and requires
// the Reader to return them exactly, with the stream fully consumed.
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
		if err := r.Done(); err != nil {
			t.Fatal(err)
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
			if tr.Done() == nil {
				t.Fatalf("truncation at %d/%d read to completion", cut, len(enc))
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
	w.Int(maxSliceLen + 1)
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
