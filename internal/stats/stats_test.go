package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyAcc(t *testing.T) {
	var l LatencyAcc
	if l.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	for _, v := range []uint64{10, 20, 30} {
		l.Add(v)
	}
	if l.Mean() != 20 {
		t.Fatalf("mean = %v, want 20", l.Mean())
	}
	if l.Max != 30 {
		t.Fatalf("max = %v, want 30", l.Max)
	}
	var m LatencyAcc
	m.Add(100)
	l.Merge(m)
	if l.Count != 4 || l.Max != 100 || l.Sum != 160 {
		t.Fatalf("merge wrong: %+v", l)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio by zero must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) != 0.75")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws := WeightedSpeedup([]float64{1, 2}, []float64{2, 2})
	if ws != 1.5 {
		t.Fatalf("ws = %v, want 1.5", ws)
	}
	// zero alone-IPC contributes 0, not Inf
	ws = WeightedSpeedup([]float64{1}, []float64{0})
	if ws != 0 {
		t.Fatalf("ws with zero alone = %v, want 0", ws)
	}
}

func TestWeightedSpeedupPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedSpeedup([]float64{1}, []float64{1, 2})
}

func TestWeightedSpeedupIdentityProperty(t *testing.T) {
	// Running each program at its alone speed gives WS == N.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ipc := make([]float64, len(raw))
		for i, r := range raw {
			ipc[i] = float64(r)/64 + 0.1
		}
		ws := WeightedSpeedup(ipc, ipc)
		return math.Abs(ws-float64(len(ipc))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "demo", Headers: []string{"name", "value"}}
	tb.AddRow("berti", 1.2345)
	tb.AddRow("clip", 42)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "berti", "1.234", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "berti"
	s.Add("4ch", 0.8)
	s.Add("8ch", 0.9)
	if m := s.Mean(); math.Abs(m-0.85) > 1e-9 {
		t.Fatalf("series mean = %v", m)
	}
	if !strings.Contains(s.String(), "8ch=0.900") {
		t.Fatalf("series string: %s", s.String())
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[1] != "b" || ks[2] != "c" {
		t.Fatalf("sorted keys wrong: %v", ks)
	}
}

func TestSafeDiv(t *testing.T) {
	if SafeDiv(1, 0) != 0 {
		t.Fatal("SafeDiv by zero must be 0")
	}
	if SafeDiv(6, 3) != 2 {
		t.Fatal("SafeDiv wrong")
	}
}
