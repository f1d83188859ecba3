package runner

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"clip/internal/core"
	"clip/internal/sim"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("workers %d", p.Workers())
	}
	var cur, peak atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		p.Go(func() {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			cur.Add(-1)
		})
	}
	p.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds pool bound 3", got)
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("defaulted pool has no workers")
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]int, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := m.Do("key", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %d", i, v)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("memo holds %d keys", m.Len())
	}
}

func TestMemoMemoizesErrors(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := m.Do(7, func() (string, error) {
			calls++
			return "", boom
		})
		if err != boom {
			t.Fatalf("err %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute retried %d times", calls)
	}
}

func tinyConfig() sim.Config {
	cfg := sim.DefaultConfig(2, 1, 8)
	cfg.InstrPerCore = 1500
	cfg.WarmupInstr = 0
	cfg.Workload = []string{"619.lbm_s-2676B", "605.mcf_s-1554B"}
	return cfg
}

func TestFingerprintCanonicalAndSensitive(t *testing.T) {
	a := tinyConfig()
	b := tinyConfig()
	if Fingerprint(&a) != Fingerprint(&b) {
		t.Fatal("identical configs fingerprint differently")
	}
	// Equal pointed-to CLIP configs must fingerprint identically even though
	// the pointers differ.
	ca, cb := tinyConfig(), tinyConfig()
	ccA := core.DefaultConfig()
	ccB := core.DefaultConfig()
	ca.CLIP = &ccA
	cb.CLIP = &ccB
	if Fingerprint(&ca) != Fingerprint(&cb) {
		t.Fatal("equal CLIP configs behind distinct pointers fingerprint differently")
	}
	// Any field change must change the fingerprint.
	c := tinyConfig()
	c.Seed++
	if Fingerprint(&a) == Fingerprint(&c) {
		t.Fatal("seed change not reflected in fingerprint")
	}
	d := tinyConfig()
	d.Prefetcher = "berti"
	if Fingerprint(&a) == Fingerprint(&d) {
		t.Fatal("prefetcher change not reflected in fingerprint")
	}
	e := tinyConfig()
	e.LLC.Sets /= 2
	if Fingerprint(&a) == Fingerprint(&e) {
		t.Fatal("geometry change not reflected in fingerprint")
	}
}

func TestCacheDedupsConcurrentRuns(t *testing.T) {
	c := NewCache()
	cfg := tinyConfig()
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*sim.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Executions != 1 {
		t.Fatalf("executed %d simulations for one config, want 1", st.Executions)
	}
	if st.Hits != callers-1 {
		t.Fatalf("hits %d, want %d", st.Hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers received different result objects")
		}
	}
	// A different config is a different simulation.
	cfg2 := tinyConfig()
	cfg2.Seed = 99
	if _, err := c.Run(cfg2); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Executions; got != 2 {
		t.Fatalf("executions %d after distinct config, want 2", got)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d configs", c.Len())
	}
}

// TestSharedReset: ResetShared drops both process-wide caches, and the
// warm-fork one forks variants from one warm-up image.
func TestSharedReset(t *testing.T) {
	ResetShared()
	a, w := Shared(), SharedWarmFork()
	if _, err := a.Run(tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 {
		t.Fatalf("shared cache len %d", a.Len())
	}
	warm := tinyConfig()
	warm.WarmupInstr = 500
	for _, pf := range []string{"berti", "stride"} {
		warm.Prefetcher = pf
		if _, err := w.Run(warm); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Executions != 2 || st.Warmups != 1 {
		t.Fatalf("warm-fork cache: %d executions and %d warm-ups, want 2 and 1", st.Executions, st.Warmups)
	}
	ResetShared()
	if Shared().Len() != 0 || SharedWarmFork().Len() != 0 {
		t.Fatal("reset did not clear the shared caches")
	}
}
