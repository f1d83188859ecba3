package sim

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"clip/internal/cpu"
	"clip/internal/mem"
)

// prngStates walks v's entire reachable object graph by reflection and
// returns the state words of every mem.PRNG it finds, grouped by field path
// (slice elements carry their index; map values pool under one path as a
// sorted multiset, since iteration order is not deterministic). This is the
// RNG audit: any seeded generator a future change hangs off the System shows
// up here whether or not its codec remembered it.
func prngStates(v reflect.Value) map[string][]uint64 {
	out := map[string][]uint64{}
	seen := map[uintptr]bool{}
	prngType := reflect.TypeOf(mem.PRNG{})
	coreType := reflect.TypeOf(cpu.Core{})
	arenaType := reflect.TypeOf(&mem.Arena{})
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if !v.IsValid() || v.Type() == arenaType {
			// The arena records the slabs the components own, by their
			// first elements: the walk reaches them through their owners.
			return
		}
		if v.Type() == prngType {
			// PRNG's single field is its SplitMix64 state word.
			out[path] = append(out[path], v.Field(0).Uint())
			return
		}
		if v.Type() == coreType {
			// A core's trace position is where its batch starts: the
			// generator's own position while nothing is filled, the batch's
			// mark once it is (the generator has run the batch ahead). A
			// restored core fills the batch at its first dispatch, so the
			// audit follows the start, not the two fields that hold it.
			start := v.FieldByName("gen").Elem()
			if v.FieldByName("ibuf").Len() > 0 {
				start = v.FieldByName("b").Elem().FieldByName("mark")
			}
			walk(reflect.Indirect(start), path+".batchStart")
			t := v.Type()
			for i := 0; i < t.NumField(); i++ {
				if name := t.Field(i).Name; name != "gen" && name != "b" {
					walk(v.Field(i), path+"."+name)
				}
			}
			return
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path+".(iface)")
			}
		case reflect.Struct:
			t := v.Type()
			for i := 0; i < t.NumField(); i++ {
				walk(v.Field(i), path+"."+t.Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"{}")
			}
		}
	}
	walk(v, "System")
	for _, states := range out {
		slices.Sort(states)
	}
	return out
}

// TestRNGAuditRoundTrip: every seeded PRNG reachable from a running System
// must survive SaveState/LoadState with its stream position intact. The walk
// is exhaustive, so a new generator that the codec misses fails here the
// moment its stream position diverges from the fresh-seed value.
func TestRNGAuditRoundTrip(t *testing.T) {
	cfg := checkpointMatrix()["het-dspatch"] // mixed workloads, TLB, most subsystems live
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxCycles := s.MaxCycles()
	for i := 0; i < 2000 && s.Step(maxCycles); i++ {
	}

	image, err := s.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	want := prngStates(reflect.ValueOf(s))
	if len(want) == 0 {
		t.Fatalf("audit walk found no PRNGs — the trace generators should be reachable")
	}
	fresh, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pristine := prngStates(reflect.ValueOf(fresh))
	if err := fresh.LoadState(image); err != nil {
		t.Fatal(err)
	}
	got := prngStates(reflect.ValueOf(fresh))

	var paths []string
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		g, ok := got[p]
		if !ok {
			t.Errorf("PRNG at %s missing after restore", p)
			continue
		}
		if !slices.Equal(g, want[p]) {
			t.Errorf("PRNG at %s: restored state %#x, want %#x (fresh-seed value was %#x — "+
				"this generator is not covered by a codec)", p, g, want[p], pristine[p])
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			t.Errorf("restore grew an unexpected PRNG at %s", p)
		}
	}
}
