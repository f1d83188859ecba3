package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// record is what one workload process measured. The child prints it as one
// JSON line; the parent turns it into metrics.
type record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	SetupS     float64 `json:"setup_s"`

	// Timed repetitions, tracing off.
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Errors     []string  `json:"errors,omitempty"`
	WallS      []float64 `json:"wall_s"`
	CPUS       []float64 `json:"cpu_s"`
	Instr      uint64    `json:"instr"` // simulated instructions per repetition
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	Digest     string    `json:"digest"`
	WSErr      float64   `json:"paper_ws_err"`

	// Traced runs only.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

func (r *record) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// timedRep runs one untraced repetition and records its wall and CPU time.
// A repetition fails on error or on a digest differing from the first one's.
func timedRep(in *instance, rec *record) {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	r, err := in.rep(nil)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	rec.Attempted++
	switch {
	case err != nil:
		rec.fail("repetition %d: %v", rec.Attempted, err)
	case r.digest != rec.Digest:
		rec.fail("repetition %d: digest %s differs from the first repetition's %s", rec.Attempted, r.digest, rec.Digest)
	default:
		rec.WallS = append(rec.WallS, wall)
		rec.CPUS = append(rec.CPUS, cpu)
	}
}

// setUp is everything before the first timed repetition: building the
// configs from the seed, the workload's prepare step and one untimed warm-up
// repetition, which decodes the traces into trace.Shared and faults in the
// heap. Its result fixes the digest every later repetition must reproduce.
func setUp(def workloadDef, seed uint64, sz sizes, start time.Time, rec *record) (*instance, repResult, error) {
	in := def.build(seed, sz)
	if in.prepare != nil {
		if err := in.prepare(); err != nil {
			return nil, repResult{}, fmt.Errorf("prepare: %w", err)
		}
	}
	warm, err := in.rep(nil)
	if err != nil {
		return nil, repResult{}, fmt.Errorf("warm-up repetition: %w", err)
	}
	rec.SetupS = time.Since(start).Seconds()
	rec.Digest, rec.Instr, rec.WSErr = warm.digest, warm.instr, warm.wsErr
	return in, warm, nil
}

// measure is the whole life of a workload process with tracing off: set-up,
// then timed repetitions in a closed loop (the next starts when the previous
// one finished) until minReps are done and either seconds have elapsed or
// maxReps is reached.
func measure(def workloadDef, seed uint64, sz sizes, seconds float64, setupOnly bool, start time.Time) *record {
	rec := &record{Workload: def.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	in, _, err := setUp(def, seed, sz, start, rec)
	if err != nil {
		rec.Attempted = 1
		rec.fail("%v", err)
		return rec
	}
	if setupOnly {
		return rec
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loop := time.Now()
	for rec.Attempted < def.minReps ||
		(rec.Attempted < def.maxReps && time.Since(loop).Seconds() < seconds) {
		timedRep(in, rec)
	}
	runtime.ReadMemStats(&m1)
	rec.Mallocs = m1.Mallocs - m0.Mallocs
	rec.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	if in.check != nil {
		if err := in.check(rec.Digest); err != nil {
			rec.fail("output check: %v", err)
		}
	}
	rec.PeakRSSMB = peakRSSMB()
	return rec
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqr is the distance between the first and third quartile, by the same
// exclusive method as Python's statistics.quantiles(v, n=4).
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(h)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return q(0.75) - q(0.25)
}
