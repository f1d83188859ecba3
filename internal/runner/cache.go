package runner

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"clip/internal/sim"
)

// Fingerprint returns a canonical byte representation of a simulation
// configuration: two configs describing the same simulation (including
// pointer-held sub-configs like CLIP) fingerprint identically, and any field
// change produces a different fingerprint. sim.Config is a pure data struct
// with only exported fields, which JSON serializes completely and
// deterministically (struct order, not map order).
func Fingerprint(cfg *sim.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// sim.Config holds only strings, numbers, bools, slices and struct
		// pointers; marshaling cannot fail unless the struct gains an
		// unserializable field, which must not happen silently.
		panic(fmt.Sprintf("runner: config not fingerprintable: %v", err))
	}
	return string(b)
}

// CacheStats counts cache traffic. Executions is the number of sim.Run calls
// actually performed — the dedup guarantee tests assert on it.
type CacheStats struct {
	Executions uint64 // simulations actually run
	Hits       uint64 // served from memory (or by waiting on an in-flight run)
	Warmups    uint64 // warmup images actually built (warm-fork mode)
}

// Cache memoizes simulation results by configuration fingerprint with
// singleflight semantics: concurrent requests for the same configuration
// perform one simulation, and any figure re-running a byte-identical
// configuration (the cross-figure baseline overlap) gets the stored result.
//
// Results are shared pointers and must be treated as immutable by callers —
// which the whole repository already does: a sim.Result is only ever read
// after Run returns.
type Cache struct {
	// warmFork enables warmup-once-fork-many execution: every configuration
	// with a warmup budget is canonicalized to its mechanism-free warmup core
	// (sim.WarmupConfig), the warmed image is built once per core and cached,
	// and each variant forks from the image instead of re-running the warmup.
	// All variants of one figure point — same workloads, seed and geometry,
	// different mechanisms — therefore share a single warmup execution. It is
	// fixed at construction: one cache never mixes the two protocols.
	warmFork bool

	runs    Memo[string, *sim.Result]
	images  Memo[string, []byte]
	execs   atomic.Uint64
	hits    atomic.Uint64
	warmups atomic.Uint64
}

// NewCache builds an empty cache.
func NewCache() *Cache { return &Cache{} }

// Run returns the result of simulating cfg, executing the simulation only if
// no byte-identical configuration has run (or is running) before.
func (c *Cache) Run(cfg sim.Config) (*sim.Result, error) {
	key := Fingerprint(&cfg)
	executed := false
	res, err := c.runs.Do(key, func() (*sim.Result, error) {
		executed = true
		c.execs.Add(1)
		return c.simulate(cfg)
	})
	if !executed {
		c.hits.Add(1)
	}
	return res, err
}

// simulate performs one simulation: a straight sim.Run, or — in warm-fork
// mode — a fork from the memoized warmup image shared by every variant with
// the same canonical warmup configuration.
func (c *Cache) simulate(cfg sim.Config) (*sim.Result, error) {
	if !c.warmFork || cfg.WarmupInstr == 0 {
		return sim.Run(cfg)
	}
	wcfg := sim.WarmupConfig(cfg)
	image, err := c.images.Do(Fingerprint(&wcfg), func() ([]byte, error) {
		c.warmups.Add(1)
		return sim.WarmupImage(wcfg)
	})
	if err != nil {
		return nil, fmt.Errorf("runner: warm-fork warmup: %w", err)
	}
	return sim.RunFromImage(cfg, image)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Executions: c.execs.Load(),
		Hits:       c.hits.Load(),
		Warmups:    c.warmups.Load(),
	}
}

// Len returns the number of distinct configurations cached or in flight.
func (c *Cache) Len() int { return c.runs.Len() }

// The process-wide caches, one per protocol: shared for straight runs and
// sharedWarm for warm-fork ones, whose results differ.
var (
	sharedMu   sync.Mutex
	shared     = NewCache()
	sharedWarm = &Cache{warmFork: true}
)

// Shared returns the process-wide run cache.
func Shared() *Cache {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return shared
}

// SharedWarmFork returns the process-wide warm-fork run cache: every
// warm-fork figure of a process reads its runs and warm-up images from it.
func SharedWarmFork() *Cache {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return sharedWarm
}

// ResetShared discards both process-wide caches (tests use this to force
// recomputation; long-lived sweeps can use it to bound memory).
func ResetShared() {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	shared = NewCache()
	sharedWarm = &Cache{warmFork: true}
}
