// Package runner is the concurrency substrate of the experiment engine: a
// bounded worker pool for fanning independent (mix, variant, channels)
// simulations across cores, a singleflight memo so two workers never compute
// the same cached value twice, and a process-wide simulation-run cache keyed
// by a canonical configuration fingerprint so byte-identical runs (the
// no-prefetch baselines and alone-IPC runs every figure shares) execute
// exactly once.
//
// Everything here is deterministic by construction: values are keyed by
// configuration, computed by pure functions of that configuration, and
// assembled by the callers in submission order — so a Report rendered from a
// run with 1 worker is byte-identical to one rendered with N workers.
package runner

import (
	"runtime"
	"sync"
)

// Pool bounds the number of concurrently executing jobs. Submission is
// unbounded (goroutines are cheap; simulations are not): every Go call
// spawns a goroutine that blocks on the semaphore until a slot frees up.
//
// Jobs must be "leaf" work — a job must not submit further jobs to the same
// pool and wait for them, or the pool can deadlock. The experiment engine
// enumerates leaf simulations up front, which also maximizes overlap across
// variants and channel counts.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup
}

// NewPool builds a pool executing at most workers jobs at once.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Go submits a job. It never blocks the caller.
func (p *Pool) Go(f func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		f()
	}()
}

// Wait blocks until every submitted job has finished. The returned
// happens-before edge makes all job writes visible to the caller, so jobs
// can fill plain result slots without further synchronization.
func (p *Pool) Wait() { p.wg.Wait() }
