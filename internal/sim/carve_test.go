package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestCarvedColumnsEndAtTheirLength: NewSystem carves each kind's columns
// for every core from one slab per column type (DESIGN.md §8), and a column
// may only ever grow by reallocating: an append to a column whose capacity
// ran past its length would write into the next core's region. So every
// slice reachable from core 0's components — caches, core, front end,
// mechanisms, tile queues, and the mesh's link VC rings with their buffers —
// must have cap == len, on 2-core systems that between them build every
// kind. The exceptions are the lists carved empty with their region's end as
// their capacity (carvedEmpty). The growth paths themselves are pinned per
// package: cache's TestArrayGrowthIsolation, prefetch's
// TestBertiFitIsolation, table's TestMapsGrowthIsolation and mem's
// TestRingAdoptGrowth.
func TestCarvedColumnsEndAtTheirLength(t *testing.T) {
	arms := map[string]func(*Config){
		"berti-clip-hermes-scored": func(c *Config) {
			*c = withCLIP(*c)
			c.Prefetcher, c.Hermes, c.ScorePredictors = "berti", true, true
		},
		"ipcp-dspatch":    func(c *Config) { c.Prefetcher, c.DSPatch = "ipcp", true },
		"bingo-catch-fdp": func(c *Config) { c.Prefetcher, c.CritPredictor, c.Throttler = "bingo", "catch", "fdp" },
		"spppf-hpac":      func(c *Config) { c.Prefetcher, c.Throttler = "spppf", "hpac" },
		"stride-robo":     func(c *Config) { c.Prefetcher, c.CritPredictor = "stride", "robo" },
		"stream-nst":      func(c *Config) { c.Prefetcher, c.Throttler = "stream", "nst" },
	}
	for name, set := range arms {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(2, 1, 8)
			set(&cfg)
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := carveWalk{t: t, seen: map[uintptr]bool{}}
			roots := map[string]any{
				"l1d": s.l1d[0], "l2": s.l2[0], "llc": s.llc[0], "core": s.cores[0],
				"port": s.ports[0], "mech": &s.mech[0],
				"stage": &s.stage[0], "llcRetry": &s.llcRetry[0], "pfQ": &s.pfQ[0],
				"pfCounts": &s.pfGenerated,
			}
			for root, v := range roots {
				w.walk(root, reflect.ValueOf(v))
			}
			// Of the mesh, its links (each with its VC rings); its packet
			// slab is its own.
			w.walk("mesh.links", reflect.ValueOf(s.mesh).Elem().FieldByName("links"))
			if w.slices == 0 {
				t.Fatal("the walk reached no slice")
			}
		})
	}
}

// carveWalk visits every slice reachable from a value through struct
// fields, pointers, interfaces and the elements of slices of structs, and
// fails on one whose capacity runs past its length. It does not follow the
// wiring between components (the System, a cache's lower level and staller
// and the arena it grows from, a core's generator and port), only what a
// component owns.
type carveWalk struct {
	t      *testing.T
	seen   map[uintptr]bool
	slices int
}

var (
	systemType = reflect.TypeOf(System{})
	wiring     = map[string]bool{"s": true, "lower": true, "staller": true, "gen": true, "port": true, "bw": true, "arena": true}
	// carvedEmpty names the lists carved with length 0 and their region as
	// their capacity: CLIP's APC history (the window count it never
	// outgrows), a cache's response queue (its first mem.RingSlots) and a
	// port's translation queue (portQueueDepth).
	carvedEmpty = map[string]bool{"apcHistory": true, "respQ": true, "pending": true}
)

func (w *carveWalk) walk(path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Elem().Type() == systemType || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.walk(path, v.Elem())
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); !wiring[f.Name] && !carvedEmpty[f.Name] {
				w.walk(path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice:
		w.slices++
		if v.Cap() != v.Len() {
			w.t.Errorf("%s: capacity %d past its length %d", path, v.Cap(), v.Len())
		}
		if k := v.Type().Elem().Kind(); k == reflect.Struct || k == reflect.Pointer || k == reflect.Interface {
			for i := 0; i < v.Len(); i++ {
				w.walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		}
	}
}
