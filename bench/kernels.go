package main

import (
	"fmt"
	"runtime"
	"time"

	"clip"
	"clip/internal/cache"
	"clip/internal/core"
	"clip/internal/cpu"
	"clip/internal/criticality"
	"clip/internal/dram"
	"clip/internal/hermes"
	"clip/internal/mem"
	"clip/internal/noc"
	"clip/internal/prefetch"
	"clip/internal/runner"
	"clip/internal/sim"
	"clip/internal/tlb"
	"clip/internal/trace"
)

// Layer kernels: each layer built alone through its public constructor and
// driven by a fixed stimulus, so a layer's cost is known apart from the
// whole-run numbers. The stimulus is the first stimulusLen instructions of
// one streaming and one pointer-chasing trace at the benchmark seed.
const (
	stimulusLen   = 200_000
	streamTrace   = "619.lbm_s-2676B"
	chaseTrace    = "605.mcf_s-1554B"
	kernelSamples = 5
)

// kernel measures one per-layer metric. ops is how many operations the
// stimulus drove; a kernel that drove none timed an empty loop and fails.
type kernel struct {
	def metricDef
	run func(e *kernelEnv) (value float64, ops uint64, err error)
}

type kernelEnv struct {
	seed          uint64
	sample        time.Duration // length of one of the kernelSamples samples
	stream, chase *stimulus
}

// stimulus is a recorded instruction stream with its loads pre-extracted.
type stimulus struct {
	cfg   trace.Config
	instr []trace.Instr
	loads []trace.Instr
	hit   []bool // per load: present in an L1D-sized direct-mapped filter
}

func newStimulus(name string, seed uint64) (*stimulus, error) {
	scale := clip.DefaultConfig(8, 1, 8)
	cfg, err := trace.Lookup(name, scale.TraceScale())
	if err != nil {
		return nil, err
	}
	cfg.Seed = mem.HashString(name) ^ seed
	gen, err := trace.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &stimulus{cfg: cfg, instr: make([]trace.Instr, stimulusLen)}
	filter := make([]uint64, scale.L1D.Lines())
	for i := range st.instr {
		ins := gen.Next()
		st.instr[i] = ins
		if ins.Op != trace.OpLoad {
			continue
		}
		line := ins.Addr.LineID()
		slot := &filter[line%uint64(len(filter))]
		st.loads = append(st.loads, ins)
		st.hit = append(st.hit, *slot == line+1)
		*slot = line + 1
	}
	if len(st.loads) == 0 {
		return nil, fmt.Errorf("stimulus %s has no loads", name)
	}
	return st, nil
}

func newKernelEnv(seed uint64, sample time.Duration) (*kernelEnv, error) {
	stream, err := newStimulus(streamTrace, seed)
	if err != nil {
		return nil, err
	}
	chase, err := newStimulus(chaseTrace, seed)
	if err != nil {
		return nil, err
	}
	return &kernelEnv{seed: seed, sample: sample, stream: stream, chase: chase}, nil
}

// perOp times batch — which runs some operations and returns how many —
// in kernelSamples samples of e.sample each after one untimed batch, and
// returns the median ns per operation.
func (e *kernelEnv) perOp(batch func() uint64) (float64, uint64, error) {
	batch()
	vals := make([]float64, 0, kernelSamples)
	var total uint64
	for s := 0; s < kernelSamples; s++ {
		var ops uint64
		start := time.Now()
		for time.Since(start) < e.sample {
			ops += batch()
		}
		el := time.Since(start)
		if ops == 0 {
			return 0, 0, fmt.Errorf("kernel drove no operations in %v", el)
		}
		vals = append(vals, float64(el.Nanoseconds())/float64(ops))
		total += ops
	}
	return median(vals), total, nil
}

// perCall times call kernelSamples times and returns the median in ms.
func perCall(call func() error) (float64, uint64, error) {
	vals := make([]float64, 0, kernelSamples)
	for s := 0; s < kernelSamples; s++ {
		start := time.Now()
		if err := call(); err != nil {
			return 0, 0, err
		}
		vals = append(vals, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(vals), kernelSamples, nil
}

func nsKernel(name string, run func(e *kernelEnv) (float64, uint64, error)) kernel {
	return kernel{metricDef{name: name, unit: "ns", lowerGood: true}, run}
}

// ---- trace ----

var sink uint64 // keeps kernel loops observable

func traceKernels() []kernel {
	return []kernel{
		nsKernel("trace.gen_ns_per_instr", func(e *kernelEnv) (float64, uint64, error) {
			gen, err := trace.New(e.stream.cfg)
			if err != nil {
				return 0, 0, err
			}
			return e.perOp(func() uint64 {
				for i := 0; i < 4096; i++ {
					sink += gen.Next().IP
				}
				return 4096
			})
		}),
		// What a window-served core pays per instruction: the Shared lookup
		// plus reading the pre-decoded window in place.
		nsKernel("trace.window_ns_per_instr", func(e *kernelEnv) (float64, uint64, error) {
			return e.perOp(func() uint64 {
				n, err := drainWindow(e.stream.cfg)
				if err != nil {
					return 0
				}
				return n
			})
		}),
		{metricDef{name: "trace.shared_build_ms", unit: "ms", lowerGood: true}, func(e *kernelEnv) (float64, uint64, error) {
			// Each call decodes a stream trace.Shared has not seen (a fresh
			// seed): kernelSamples slots of its 256-stream cache.
			cfg := e.chase.cfg
			var n uint64
			v, _, err := perCall(func() error {
				cfg.Seed++
				d, err := drainWindow(cfg)
				n += d
				return err
			})
			return v, n, err
		}},
	}
}

// drainWindow reads cfg's whole shared window in place, decoding it first if
// trace.Shared has not yet.
func drainWindow(cfg trace.Config) (uint64, error) {
	gen, err := trace.Shared(cfg)
	if err != nil {
		return 0, err
	}
	win, ok := gen.(trace.Windower)
	if !ok {
		return 0, fmt.Errorf("trace.Shared generator serves no window")
	}
	var n uint64
	for w := win.Window(); len(w) > 0; w = win.Window() {
		for i := range w {
			sink += uint64(w[i].Addr)
		}
		n += uint64(len(w))
	}
	return n, nil
}

// ---- cpu ----

// loopGen replays a recorded stream forever, serving it as a zero-copy
// window so the kernel times the core and not a generator.
type loopGen struct {
	instr []trace.Instr
	pos   int
}

func (g *loopGen) Name() string { return "bench-loop" }
func (g *loopGen) Next() trace.Instr {
	ins := g.instr[g.pos]
	g.pos = (g.pos + 1) % len(g.instr)
	return ins
}
func (g *loopGen) Window() []trace.Instr { return g.instr }

// fixedPort is a MemoryPort that accepts everything and completes every
// load after a fixed latency, in order.
type fixedPort struct {
	lat    uint64
	served mem.Level
	cycle  uint64
	q      mem.Ring[mem.Response]
}

func (p *fixedPort) Issue(req *mem.Request) bool {
	if req.Type == mem.Load {
		p.q.Push(mem.Response{Req: *req, ServedBy: p.served, DoneCycle: p.cycle + p.lat})
	}
	return true
}

func cpuKernel(name string, lat uint64, served mem.Level, listeners bool) kernel {
	return nsKernel(name, func(e *kernelEnv) (float64, uint64, error) {
		port := &fixedPort{lat: lat, served: served}
		c, err := cpu.New(0, cpu.DefaultConfig(), &loopGen{instr: e.stream.instr}, port, 1<<62)
		if err != nil {
			return 0, 0, err
		}
		if listeners {
			c.OnRetire(func(ev *cpu.RetireEvent) { sink += ev.IP })
			c.OnLoadComplete(func(ev *cpu.LoadEvent) { sink += ev.Latency })
		}
		// The System's loop in miniature: deliver due loads, tick while the
		// core has work, otherwise jump to its next event.
		cy := uint64(0)
		return e.perOp(func() uint64 {
			start := c.RetiredTotal()
			for c.RetiredTotal()-start < 8192 {
				for port.q.Len() > 0 && port.q.Front().DoneCycle <= cy {
					r := port.q.PopFront()
					c.CompleteLoad(&r)
				}
				if c.Woken() || c.NextEvent(cy) <= cy {
					port.cycle = cy
					c.Tick(cy)
					cy++
					continue
				}
				h := c.NextEvent(cy)
				if port.q.Len() > 0 && port.q.Front().DoneCycle < h {
					h = port.q.Front().DoneCycle
				}
				if h == mem.NoEvent {
					break // nothing in flight and no event: would time an empty loop
				}
				c.SkipCycles(cy, h-cy)
				cy = h
			}
			return c.RetiredTotal() - start
		})
	})
}

// ---- cache ----

// stubLower accepts every request and fills reads after a fixed delay.
type stubLower struct {
	delay uint64
	up    *cache.Cache
	q     mem.Ring[mem.Response]
}

func (l *stubLower) Issue(req *mem.Request) bool {
	if req.Type != mem.Writeback {
		l.q.Push(mem.Response{Req: *req, ServedBy: mem.LevelL2, DoneCycle: req.IssueCycle + l.delay})
	}
	return true
}

func (l *stubLower) tick(cy uint64) {
	for l.q.Len() > 0 && l.q.Front().DoneCycle <= cy {
		r := l.q.PopFront()
		r.DoneCycle = cy
		l.up.Fill(&r)
	}
}

// cacheKernel drives one L1D-geometry cache with typ accesses to addr(i)
// and counts the operations `done` reads off the cache's stats.
func cacheKernel(name string, typ mem.AccessType, addr func(e *kernelEnv, i int) mem.Addr, done func(*cache.Stats) uint64) kernel {
	return nsKernel(name, func(e *kernelEnv) (float64, uint64, error) {
		g := clip.DefaultConfig(8, 1, 8).L1D
		lower := &stubLower{delay: 40}
		c, err := cache.New(cache.Config{Name: "bench-l1d", Level: mem.LevelL1, Sets: g.Sets, Ways: g.Ways,
			Latency: g.Latency, MSHRs: g.MSHRs, Policy: g.Policy, Ports: g.Ports, InQ: g.InQ}, lower)
		if err != nil {
			return 0, 0, err
		}
		lower.up = c
		c.OnResponse(func(r *mem.Response) { sink += r.DoneCycle })
		cy, next := uint64(0), 0
		return e.perOp(func() uint64 {
			start := done(c.Stats())
			for t := 0; t < 2048; t++ {
				for p := 0; p < g.Ports; p++ {
					req := mem.Request{Addr: addr(e, next), IP: uint64(next & 63), Type: typ, IssueCycle: cy, ROBIndex: 1}
					req.TriggerIP = req.IP
					if !c.Issue(&req) {
						break
					}
					next++
				}
				c.Tick(cy)
				lower.tick(cy)
				cy++
			}
			return done(c.Stats()) - start
		})
	})
}

func cacheKernels() []kernel {
	streamLine := func(e *kernelEnv, i int) mem.Addr { return e.stream.loads[i%len(e.stream.loads)].Addr.Line() }
	return []kernel{
		// 64 resident lines: every access after the first pass hits.
		cacheKernel("cache.ns_per_hit", mem.Load,
			func(_ *kernelEnv, i int) mem.Addr { return mem.Addr(uint64(i%64) << mem.LineShift) },
			func(s *cache.Stats) uint64 { return s.DemandHits }),
		cacheKernel("cache.ns_per_miss_fill", mem.Load, streamLine,
			func(s *cache.Stats) uint64 { return s.DemandMisses }),
		// Streaming stores dirty every line they allocate, so every eviction
		// is a writeback to the lower level.
		cacheKernel("cache.ns_per_store_wb", mem.Store, streamLine,
			func(s *cache.Stats) uint64 { return s.Writebacks }),
	}
}

// ---- tlb ----

func tlbKernel() kernel {
	return nsKernel("tlb.ns_per_translate", func(e *kernelEnv) (float64, uint64, error) {
		h, err := tlb.New(tlb.DefaultConfig(8))
		if err != nil {
			return 0, 0, err
		}
		next := 0
		return e.perOp(func() uint64 {
			for i := 0; i < 4096; i++ {
				sink += h.Translate(e.chase.loads[next].Addr)
				next = (next + 1) % len(e.chase.loads)
			}
			return 4096
		})
	})
}

// ---- noc ----

// nocKernel injects one packet every `every` cycles into the paper's 8x8
// mesh, alternating address and data packets, and counts deliveries.
func nocKernel(name string, every int, dst func(rng *mem.PRNG) int) kernel {
	return nsKernel(name, func(e *kernelEnv) (float64, uint64, error) {
		m, err := noc.New(noc.DefaultConfig(64))
		if err != nil {
			return 0, 0, err
		}
		var delivered uint64
		m.OnDeliver(func(uint8, int, *mem.Response, uint64) { delivered++ })
		rng := mem.NewPRNG(e.seed)
		var resp mem.Response
		cy, sent := uint64(0), 0
		return e.perOp(func() uint64 {
			start := delivered
			for t := 0; t < 2048; t++ {
				if every > 0 && int(cy)%every == 0 {
					flits := noc.FlitsPerAddr
					if sent%2 == 1 {
						flits = noc.FlitsPerData
					}
					m.SendPayload(rng.Intn(64), dst(rng), flits, sent%4 != 3, 0, &resp)
					sent++
				}
				m.Tick(cy)
				cy++
			}
			if every == 0 {
				return 2048 // idle ticks
			}
			return delivered - start
		})
	})
}

func nocKernels() []kernel {
	return []kernel{
		nocKernel("noc.ns_per_packet_uniform", 1, func(rng *mem.PRNG) int { return rng.Intn(64) }),
		// Every packet to one node, below what its four inbound links carry.
		nocKernel("noc.ns_per_packet_hotspot", 2, func(*mem.PRNG) int { return 27 }),
		nocKernel("noc.ns_per_idle_tick", 0, nil),
	}
}

// ---- dram ----

// dramKernel holds one channel's queue at `depth` entries of typ, refilling
// before every Tick, and counts `done`.
func dramKernel(name string, typ mem.AccessType, depth int, done func(*dram.Stats) uint64) kernel {
	return nsKernel(name, func(e *kernelEnv) (float64, uint64, error) {
		d, err := dram.New(dram.DefaultConfig(1))
		if err != nil {
			return 0, 0, err
		}
		d.OnResponse(func(r *mem.Response) { sink += r.DoneCycle })
		// Alternate a streaming and a chasing address so the scheduler sees
		// row hits and row conflicts, as it does under an eight-core mix.
		addr := func(i int) mem.Addr {
			st := e.stream
			if i%2 == 1 {
				st = e.chase
			}
			return st.loads[(i/2)%len(st.loads)].Addr.Line()
		}
		cy, next, queued := uint64(0), 0, uint64(0)
		return e.perOp(func() uint64 {
			start := done(d.Stats())
			for t := 0; t < 4096; t++ {
				for int(queued-done(d.Stats())) < depth {
					req := mem.Request{Addr: addr(next), Type: typ, IssueCycle: cy, ROBIndex: -1}
					if !d.Issue(&req) {
						break
					}
					next++
					queued++
				}
				d.Tick(cy)
				cy++
			}
			return done(d.Stats()) - start
		})
	})
}

func dramKernels() []kernel {
	reads := func(s *dram.Stats) uint64 { return s.Reads }
	return []kernel{
		dramKernel("dram.ns_per_read_q8", mem.Load, 8, reads),
		dramKernel("dram.ns_per_read_q48", mem.Load, 48, reads),
		// A write queue held above its watermark stays in drain mode.
		dramKernel("dram.ns_per_write_drain", mem.Writeback, 60, func(s *dram.Stats) uint64 { return s.Writes }),
	}
}

// ---- prefetch, criticality, core (CLIP), hermes ----

func prefetchKernels() []kernel {
	var ks []kernel
	add := func(stim string, pick func(*kernelEnv) *stimulus, names ...string) {
		for _, name := range names {
			ks = append(ks, nsKernel("prefetch.train_ns_"+stim+"."+name, func(e *kernelEnv) (float64, uint64, error) {
				pf, err := prefetch.New(name)
				if err != nil {
					return 0, 0, err
				}
				st := pick(e)
				next, cy := 0, uint64(0)
				return e.perOp(func() uint64 {
					for i := 0; i < 4096; i++ {
						l := &st.loads[next]
						cands := pf.Train(prefetch.Access{IP: l.IP, Addr: l.Addr, Hit: st.hit[next], Cycle: cy})
						sink += uint64(len(cands))
						next = (next + 1) % len(st.loads)
						cy += 3
					}
					return 4096
				})
			}))
		}
	}
	add("stream", func(e *kernelEnv) *stimulus { return e.stream }, "berti", "ipcp", "bingo", "spppf", "stride", "stream")
	add("chase", func(e *kernelEnv) *stimulus { return e.chase }, "berti", "ipcp", "bingo", "spppf")
	return ks
}

// loadEvent synthesises the completion of the chase stimulus's i-th load.
// Service level, stall flags and histories are fixed functions of i: about
// 70% L1, 15% L2, 10% LLC, 5% DRAM, with the deeper ones stalling the head.
func loadEvent(e *kernelEnv, i int) cpu.LoadEvent {
	l := &e.chase.loads[i%len(e.chase.loads)]
	h := mem.Mix64(uint64(i))
	ev := cpu.LoadEvent{IP: l.IP, Addr: l.Addr, Cycle: uint64(i) * 4, ROBOccupancy: int(h >> 8 & 511),
		MLPAtComplete: int(h >> 20 & 7), BranchHist: uint32(h >> 24), CritHist: uint32(h >> 40)}
	switch p := h % 100; {
	case p < 70:
		ev.ServedBy, ev.Latency = mem.LevelL1, 5
	case p < 85:
		ev.ServedBy, ev.Latency = mem.LevelL2, 16
	case p < 95:
		ev.ServedBy, ev.Latency, ev.StalledHead = mem.LevelLLC, 60, h&1 == 0
	default:
		ev.ServedBy, ev.Latency, ev.StalledHead, ev.AtHead = mem.LevelDRAM, 300, true, true
	}
	if ev.StalledHead {
		ev.HeadStallCycles = ev.Latency / 2
	}
	return ev
}

func criticalityKernels() []kernel {
	var ks []kernel
	for _, name := range criticality.Names() {
		ks = append(ks, nsKernel("criticality.ns_per_load."+name, func(e *kernelEnv) (float64, uint64, error) {
			p, err := criticality.New(name, cpu.DefaultConfig().ROBSize)
			if err != nil {
				return 0, 0, err
			}
			next := 0
			return e.perOp(func() uint64 {
				for i := 0; i < 2048; i++ {
					ev := loadEvent(e, next)
					if p.Critical(ev.IP, ev.Addr) {
						sink++
					}
					p.OnLoadComplete(&ev)
					p.OnRetire(&cpu.RetireEvent{IP: ev.IP, Op: trace.OpLoad, Addr: ev.Addr, IsLoad: true,
						ServedBy: ev.ServedBy, StallCycles: ev.HeadStallCycles, DependChain: next%3 == 0, Cycle: ev.Cycle})
					next++
				}
				return 2048
			})
		}))
	}
	return ks
}

// trainedCLIP returns a CLIP that has seen n load completions, so its filter
// and predictor hold the chase stimulus's critical IPs.
func trainedCLIP(e *kernelEnv, n int) (*core.CLIP, error) {
	cfg := core.DefaultConfig()
	cfg.CriticalityLevel = mem.LevelL2
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		ev := loadEvent(e, i)
		c.OnLoadComplete(&ev)
	}
	return c, nil
}

func clipKernels() []kernel {
	return []kernel{
		nsKernel("core.clip_ns_per_access", func(e *kernelEnv) (float64, uint64, error) {
			c, err := trainedCLIP(e, 20_000)
			if err != nil {
				return 0, 0, err
			}
			next := 0
			return e.perOp(func() uint64 {
				for i := 0; i < 4096; i++ {
					l := &e.stream.loads[next%len(e.stream.loads)]
					// Keep the utility buffer populated, as a prefetching
					// core does: OnAccess scans it on every access.
					if next%8 == 0 {
						c.Allow(prefetch.Candidate{Addr: l.Addr + mem.LineBytes, TriggerIP: e.chase.loads[next%len(e.chase.loads)].IP})
					}
					c.OnAccess(l.Addr, e.stream.hit[next%len(e.stream.hit)], uint64(next)*3)
					next++
				}
				return 4096
			})
		}),
		nsKernel("core.clip_ns_per_allow", func(e *kernelEnv) (float64, uint64, error) {
			c, err := trainedCLIP(e, 20_000)
			if err != nil {
				return 0, 0, err
			}
			next := 0
			return e.perOp(func() uint64 {
				for i := 0; i < 4096; i++ {
					l := &e.chase.loads[next%len(e.chase.loads)]
					h := mem.Mix64(uint64(next))
					c.SetHistories(uint32(h>>24), uint32(h>>40))
					if ok, _ := c.Allow(prefetch.Candidate{Addr: l.Addr + mem.LineBytes, TriggerIP: l.IP}); ok {
						sink++
					}
					next++
				}
				return 4096
			})
		}),
		nsKernel("core.clip_ns_per_loadcomplete", func(e *kernelEnv) (float64, uint64, error) {
			c, err := trainedCLIP(e, 0)
			if err != nil {
				return 0, 0, err
			}
			next := 0
			return e.perOp(func() uint64 {
				for i := 0; i < 4096; i++ {
					ev := loadEvent(e, next)
					c.OnLoadComplete(&ev)
					next++
				}
				return 4096
			})
		}),
	}
}

func hermesKernel() kernel {
	return nsKernel("hermes.ns_per_predict_train", func(e *kernelEnv) (float64, uint64, error) {
		p := hermes.New()
		next := 0
		return e.perOp(func() uint64 {
			for i := 0; i < 4096; i++ {
				ev := loadEvent(e, next)
				p.Train(ev.IP, ev.Addr, ev.ServedBy, p.PredictOffChip(ev.IP, ev.Addr))
				next++
			}
			return 4096
		})
	})
}

// ---- sim, snapshot, runner ----

// kernelConfig is a berti+CLIP system of the given size with a warm-up
// phase, so it can be imaged.
func kernelConfig(e *kernelEnv, cores int) sim.Config {
	return meshConfig(e.seed, cores, 2_000, 2_000)
}

func newSystemKernels(suffix string, cores int) []kernel {
	var ms, allocs float64
	measure := func(e *kernelEnv) error {
		if ms != 0 {
			return nil
		}
		cfg := kernelConfig(e, cores)
		if s, err := sim.NewSystem(cfg); err != nil { // decode the traces first
			return err
		} else {
			s.Close()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		v, n, err := perCall(func() error {
			s, err := sim.NewSystem(cfg)
			if err == nil {
				s.Close()
			}
			return err
		})
		runtime.ReadMemStats(&m1)
		ms, allocs = v, float64(m1.Mallocs-m0.Mallocs)/float64(n)
		return err
	}
	return []kernel{
		{metricDef{name: "sim.newsystem_ms_" + suffix, unit: "ms", lowerGood: true}, func(e *kernelEnv) (float64, uint64, error) {
			err := measure(e)
			return ms, kernelSamples, err
		}},
		{metricDef{name: "sim.newsystem_allocs_" + suffix, unit: "count", lowerGood: true}, func(e *kernelEnv) (float64, uint64, error) {
			err := measure(e)
			return allocs, kernelSamples, err
		}},
	}
}

func snapshotKernels() []kernel {
	var image64 []byte
	image := func(e *kernelEnv, cores int) ([]byte, error) {
		if cores == 64 && image64 != nil {
			return image64, nil
		}
		img, err := sim.WarmupImage(kernelConfig(e, cores))
		if cores == 64 {
			image64 = img
		}
		return img, err
	}
	sizeKernel := func(suffix string, cores int) kernel {
		return kernel{metricDef{name: "snapshot.image_mb_" + suffix, unit: "MB", lowerGood: true}, func(e *kernelEnv) (float64, uint64, error) {
			img, err := image(e, cores)
			return float64(len(img)) / 1e6, uint64(len(img)), err
		}}
	}
	// rate times op on a 64-core system holding the 64-core image.
	rate := func(name string, op func(s *sim.System, img []byte) error) kernel {
		return kernel{metricDef{name: name, unit: "MB/s"}, func(e *kernelEnv) (float64, uint64, error) {
			img, err := image(e, 64)
			if err != nil {
				return 0, 0, err
			}
			s, err := sim.NewSystem(kernelConfig(e, 64))
			if err != nil {
				return 0, 0, err
			}
			defer s.Close()
			if err := s.LoadState(img); err != nil {
				return 0, 0, err
			}
			ms, n, err := perCall(func() error { return op(s, img) })
			return ratio(float64(len(img))/1e6, ms/1e3), n * uint64(len(img)), err
		}}
	}
	return []kernel{
		sizeKernel("8c", 8),
		sizeKernel("64c", 64),
		rate("snapshot.save_mb_per_s", func(s *sim.System, _ []byte) error {
			_, err := s.SaveState()
			return err
		}),
		rate("snapshot.load_mb_per_s", func(s *sim.System, img []byte) error { return s.LoadState(img) }),
	}
}

func runnerKernel() kernel {
	return kernel{metricDef{name: "runner.cached_suite_ms", unit: "ms", lowerGood: true}, func(e *kernelEnv) (float64, uint64, error) {
		// The cost of a re-run whose every point is a cache hit does not
		// depend on the instruction budget, so the fill uses a tiny one.
		sc := suiteScale(e.seed, tinySizes, false)
		runner.ResetShared()
		defer runner.ResetShared()
		if _, err := clip.RunExperiment("fig9", sc); err != nil {
			return 0, 0, err
		}
		execs := runner.Shared().Stats().Executions
		v, n, err := perCall(func() error {
			_, err := clip.RunExperiment("fig9", sc)
			return err
		})
		if err == nil && runner.Shared().Stats().Executions != execs {
			err = fmt.Errorf("cached fig9 re-run executed simulations")
		}
		return v, n * runner.Shared().Stats().Hits, err
	}}
}

// allKernels lists every layer kernel in report order.
func allKernels() []kernel {
	var ks []kernel
	ks = append(ks, traceKernels()...)
	ks = append(ks,
		cpuKernel("cpu.ns_per_instr_lat4", 4, mem.LevelL1, false),
		cpuKernel("cpu.ns_per_instr_lat200", 200, mem.LevelDRAM, false),
		cpuKernel("cpu.ns_per_instr_listeners", 4, mem.LevelL1, true))
	ks = append(ks, cacheKernels()...)
	ks = append(ks, tlbKernel())
	ks = append(ks, nocKernels()...)
	ks = append(ks, dramKernels()...)
	ks = append(ks, prefetchKernels()...)
	ks = append(ks, criticalityKernels()...)
	ks = append(ks, clipKernels()...)
	ks = append(ks, hermesKernel())
	ks = append(ks, snapshotKernels()...)
	ks = append(ks, newSystemKernels("8c", 8)...)
	ks = append(ks, newSystemKernels("64c", 64)...)
	ks = append(ks, runnerKernel())
	return ks
}

// runKernels measures every kernel into out and returns the operation count
// each one drove.
func runKernels(e *kernelEnv, out map[string]float64) (map[string]uint64, error) {
	ops := map[string]uint64{}
	for _, k := range allKernels() {
		v, n, err := k.run(e)
		if err != nil {
			return ops, fmt.Errorf("kernel %s: %w", k.def.name, err)
		}
		if n == 0 {
			return ops, fmt.Errorf("kernel %s drove no operations", k.def.name)
		}
		out[k.def.name] = v
		ops[k.def.name] = n
	}
	return ops, nil
}
