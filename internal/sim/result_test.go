package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clip/internal/cache"
	"clip/internal/core"
)

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{}
	r.IPC = []float64{1, 2, 3}
	if r.MeanIPC() != 2 || r.SumIPC() != 6 {
		t.Fatalf("mean %v sum %v", r.MeanIPC(), r.SumIPC())
	}

	// PrefetchAccuracy prefers L1 when it has fills, else L2.
	r.L1 = cache.Stats{PFFills: 10, PFUseful: 8}
	if acc := r.PrefetchAccuracy(); acc != 0.8 {
		t.Fatalf("L1 accuracy %v", acc)
	}
	r.L1 = cache.Stats{}
	r.L2 = cache.Stats{PFFills: 10, PFUseful: 5}
	if acc := r.PrefetchAccuracy(); acc != 0.5 {
		t.Fatalf("L2 fallback accuracy %v", acc)
	}

	// Lateness across levels.
	r.L1 = cache.Stats{PFLate: 3, PFUseful: 1}
	r.L2 = cache.Stats{PFLate: 1, PFUseful: 3}
	if l := r.Lateness(); l != 0.5 {
		t.Fatalf("lateness %v, want 0.5", l)
	}
}

func TestTLBStatsDerived(t *testing.T) {
	ts := tlbStats{Accesses: 10, DTLBHits: 9}
	if ts.DTLBHitRate() != 0.9 {
		t.Fatalf("hit rate %v", ts.DTLBHitRate())
	}
	var empty tlbStats
	if empty.DTLBHitRate() != 0 {
		t.Fatal("empty TLB stats should be 0")
	}
}

func TestICacheStatsDerived(t *testing.T) {
	s := ICacheStats{Fetches: 100, Misses: 5}
	if hr := s.HitRate(); hr != 0.95 {
		t.Fatalf("hit rate %v", hr)
	}
}

// fillCounters sets every uint64 reachable from v (fields, array
// elements, nested structs) to a distinct nonzero value, starting at *next.
func fillCounters(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(*next)
		*next++
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillCounters(v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillCounters(v.Index(i), next)
		}
	}
}

// checkAggregated requires every uint64 of sum to be twice the
// same one of one: a sum of two copies. A field named Max is a maximum, so
// it must equal one's.
func checkAggregated(t *testing.T, path string, sum, one reflect.Value) {
	t.Helper()
	switch sum.Kind() {
	case reflect.Uint64:
		want := 2 * one.Uint()
		if strings.HasSuffix(path, ".Max") {
			want = one.Uint()
		}
		if sum.Uint() != want {
			t.Errorf("%s aggregates to %d, want %d", path, sum.Uint(), want)
		}
	case reflect.Struct:
		for i := 0; i < sum.NumField(); i++ {
			checkAggregated(t, path+"."+sum.Type().Field(i).Name, sum.Field(i), one.Field(i))
		}
	case reflect.Array:
		for i := 0; i < sum.Len(); i++ {
			checkAggregated(t, fmt.Sprintf("%s[%d]", path, i), sum.Index(i), one.Index(i))
		}
	default:
		t.Errorf("%s: kind %s is not a counter; teach this test how it aggregates", path, sum.Kind())
	}
}

// TestAggregationCoversEveryCounter: addCache and addClip sum every counter
// of a cache.Stats and a core.Stats into a Result, so a counter added to
// either cannot read zero in the Result.
func TestAggregationCoversEveryCounter(t *testing.T) {
	next := uint64(1)
	var c cache.Stats
	fillCounters(reflect.ValueOf(&c).Elem(), &next)
	var cacheSum cache.Stats
	addCache(&cacheSum, &c)
	addCache(&cacheSum, &c)
	checkAggregated(t, "cache.Stats", reflect.ValueOf(cacheSum), reflect.ValueOf(c))

	var k core.Stats
	fillCounters(reflect.ValueOf(&k).Elem(), &next)
	var clipSum core.Stats
	addClip(&clipSum, &k)
	addClip(&clipSum, &k)
	checkAggregated(t, "core.Stats", reflect.ValueOf(clipSum), reflect.ValueOf(k))
}
