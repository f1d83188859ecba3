package prefetch

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"clip/internal/mem"
)

// The Berti train-equivalence check pins the flattened column layout to the
// behaviour of the pre-rewrite tables: the expected output was captured from
// the Berti that held per-IP bertiEntry structs inline in table.Fixed, over a
// deterministic access stream, and the test replays the same stream through
// the current implementation, requiring candidate-for-candidate identical
// output including confidences. The whole capture is pinned by the sha256 of
// its canonical encoding (json.Marshal of the steps with their output); its
// first steps are kept readable, so a divergence there is shown step by step.
//
// Re-record (only when deliberately changing Berti's *algorithm*, never for a
// layout change) with
//
//	CLIP_REGEN_BERTI_GOLDEN=1 go test ./internal/prefetch -run BertiGolden -v
//
// which rewrites the readable prefix and logs the digest to put below.

const (
	bertiPrefixPath = "testdata/berti_train_prefix.json"
	bertiPrefixLen  = 200
	bertiGoldenSum  = "f52f4a3fce3eb2ad3356500f4ded7817c60d5f2d688925af87204bcc519bad76"
)

// bertiGoldenStep is one Train call and its observed output.
type bertiGoldenStep struct {
	IP    uint64 `json:"ip"`
	Addr  uint64 `json:"addr"`
	Hit   bool   `json:"hit"`
	Cycle uint64 `json:"cycle"`
	// ObserveLat, when nonzero, is fed to ObserveMissLatency before Train.
	ObserveLat uint64              `json:"observe_lat,omitempty"`
	Out        []bertiGoldenCandid `json:"out,omitempty"`
}

type bertiGoldenCandid struct {
	Addr       uint64  `json:"addr"`
	TriggerIP  uint64  `json:"trigger_ip"`
	FillLevel  uint8   `json:"fill_level"`
	Confidence float64 `json:"confidence"`
}

// bertiGoldenStream synthesizes the deterministic access stream: a handful
// of strided IPs (different strides and noise levels), an irregular IP, and
// enough distinct IPs to force FIFO table evictions, with cycles advancing
// unevenly so timeliness windows open and close.
func bertiGoldenStream() []bertiGoldenStep {
	rng := mem.NewPRNG(0xbe271)
	var steps []bertiGoldenStep
	cycle := uint64(1000)
	// Per-IP cursors for the strided streams.
	type stream struct {
		ip     uint64
		line   uint64
		stride int64
		noise  uint64 // 1-in-noise accesses jump randomly (0 = clean)
	}
	streams := []stream{
		{ip: 0x400100, line: 1 << 20, stride: 1},
		{ip: 0x400200, line: 2 << 20, stride: 4, noise: 7},
		{ip: 0x400300, line: 3 << 20, stride: -2},
		{ip: 0x400400, line: 4 << 20, stride: 13, noise: 5},
	}
	for i := 0; i < 4000; i++ {
		cycle += 20 + rng.Uint64()%180
		var st bertiGoldenStep
		switch pick := rng.Uint64() % 10; {
		case pick < 6: // strided stream access
			s := &streams[rng.Uint64()%uint64(len(streams))]
			if s.noise != 0 && rng.Uint64()%s.noise == 0 {
				s.line += rng.Uint64() % 1000
			} else {
				s.line = uint64(int64(s.line) + s.stride)
			}
			st = bertiGoldenStep{IP: s.ip, Addr: s.line << mem.LineShift,
				Hit: rng.Uint64()&1 == 0, Cycle: cycle}
		case pick < 8: // irregular IP: random lines in a 4K-line pool
			st = bertiGoldenStep{IP: 0x400500, Addr: (rng.Uint64() % 4096 << mem.LineShift) + 5<<32,
				Cycle: cycle}
		default: // churn IPs to exercise FIFO eviction
			st = bertiGoldenStep{IP: 0x500000 + rng.Uint64()%100,
				Addr: (6 << 32) + rng.Uint64()%(1<<20)<<mem.LineShift, Cycle: cycle}
		}
		if rng.Uint64()%64 == 0 {
			st.ObserveLat = 40 + rng.Uint64()%300
		}
		steps = append(steps, st)
	}
	return steps
}

// runBertiGolden replays the stream through a fresh Berti, filling in Out.
func runBertiGolden(steps []bertiGoldenStep) {
	b := &newBertis(nil, 1)[0]
	for i := range steps {
		s := &steps[i]
		if s.ObserveLat != 0 {
			b.ObserveMissLatency(s.ObserveLat)
		}
		out := b.Train(Access{IP: s.IP, Addr: mem.Addr(s.Addr), Hit: s.Hit, Cycle: s.Cycle})
		s.Out = nil
		for _, c := range out {
			s.Out = append(s.Out, bertiGoldenCandid{
				Addr: uint64(c.Addr), TriggerIP: c.TriggerIP,
				FillLevel: uint8(c.FillLevel), Confidence: c.Confidence,
			})
		}
	}
}

func TestBertiGoldenEquivalence(t *testing.T) {
	got := bertiGoldenStream()
	runBertiGolden(got)
	canon, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(canon))
	if os.Getenv("CLIP_REGEN_BERTI_GOLDEN") != "" {
		data, err := json.MarshalIndent(got[:bertiPrefixLen], "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bertiPrefixPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s; the %d steps hash to %s", bertiPrefixPath, len(got), sum)
		return
	}
	data, err := os.ReadFile(bertiPrefixPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []bertiGoldenStep
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != bertiPrefixLen {
		t.Fatalf("%s holds %d steps, want %d", bertiPrefixPath, len(want), bertiPrefixLen)
	}
	for i, w := range want {
		g := got[i]
		if w.IP != g.IP || w.Addr != g.Addr || w.Cycle != g.Cycle {
			t.Fatalf("step %d: stream drifted (ip %x vs %x)", i, g.IP, w.IP)
		}
		if !reflect.DeepEqual(w.Out, g.Out) {
			t.Fatalf("step %d (ip %x cy %d): candidates differ\ngot:  %+v\nwant: %+v", i, w.IP, w.Cycle, g.Out, w.Out)
		}
	}
	if sum != bertiGoldenSum {
		t.Fatalf("the %d steps hash to %s, recorded %s: the output differs after step %d", len(got), sum, bertiGoldenSum, bertiPrefixLen)
	}
}
