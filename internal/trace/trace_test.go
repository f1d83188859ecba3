package trace

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clip/internal/mem"
)

var testScale = Scale{LLCLinesPerCore: 2048}

// mustLookup is Lookup for names the tests know are registered.
func mustLookup(name string, sc Scale) Config {
	cfg, err := Lookup(name, sc)
	if err != nil {
		panic(err)
	}
	return cfg
}

func testConfig() Config {
	return Config{
		Name: "unit",
		Sites: []SiteSpec{
			{Class: PatStream, StrideLines: 1, Weight: 2},
			{Class: PatChase, Weight: 1},
			{Class: PatMixed, StrideLines: 1, Weight: 1},
		},
		FootprintLines: 4096, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		BranchMispredictRate: 0.05, MixedTakenProb: 0.5, ChaseChainFrac: 0.8,
		ExecLatMean: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
	bad = good
	bad.Sites = nil
	if bad.Validate() == nil {
		t.Fatal("no sites accepted")
	}
	bad = good
	bad.LoadFrac = 0
	if bad.Validate() == nil {
		t.Fatal("zero load frac accepted")
	}
	bad = good
	bad.LoadFrac, bad.StoreFrac, bad.BranchFrac = 0.5, 0.4, 0.3
	if bad.Validate() == nil {
		t.Fatal("fractions over 1 accepted")
	}
	bad = good
	bad.FootprintLines = 0
	if bad.Validate() == nil {
		t.Fatal("zero footprint accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := MustNew(testConfig())
	b := MustNew(testConfig())
	for i := 0; i < 5000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestGeneratorInstructionMix(t *testing.T) {
	g := MustNew(testConfig())
	const n = 50000
	var loads, stores, branches int
	for i := 0; i < n; i++ {
		switch g.Next().Op {
		case OpLoad:
			loads++
		case OpStore:
			stores++
		case OpBranch:
			branches++
		}
	}
	lf := float64(loads) / n
	if lf < 0.2 || lf > 0.4 {
		t.Errorf("load fraction %v far from configured 0.3", lf)
	}
	if stores == 0 || branches == 0 {
		t.Errorf("missing stores (%d) or branches (%d)", stores, branches)
	}
}

func TestStableIPsPerSite(t *testing.T) {
	g := MustNew(testConfig())
	ipAddrs := map[uint64]map[mem.Addr]bool{}
	for i := 0; i < 20000; i++ {
		ins := g.Next()
		if ins.Op != OpLoad {
			continue
		}
		if ipAddrs[ins.IP] == nil {
			ipAddrs[ins.IP] = map[mem.Addr]bool{}
		}
		ipAddrs[ins.IP][ins.Addr.Line()] = true
	}
	if len(ipAddrs) == 0 || len(ipAddrs) > 16 {
		t.Fatalf("expected a small stable set of load IPs, got %d", len(ipAddrs))
	}
	// Every load IP should touch multiple lines (the pattern advances).
	for ip, addrs := range ipAddrs {
		if len(addrs) < 2 {
			t.Errorf("IP %#x stuck on %d line(s)", ip, len(addrs))
		}
	}
}

func TestStreamSiteIsSequential(t *testing.T) {
	cfg := Config{
		Name:           "stream-only",
		Sites:          []SiteSpec{{Class: PatStream, StrideLines: 1, Weight: 1}},
		FootprintLines: 4096, LoadFrac: 0.3, ExecLatMean: 1,
	}
	g := MustNew(cfg)
	var prev mem.Addr
	var seen, sequential, transitions int
	for i := 0; i < 40000 && seen < 2000; i++ {
		ins := g.Next()
		if ins.Op != OpLoad {
			continue
		}
		if seen > 0 {
			delta := int64(ins.Addr.LineID()) - int64(prev.LineID())
			switch delta {
			case 0:
				// word reuse within the line
			case 1:
				sequential++
				transitions++
			default:
				transitions++ // row/plane boundary jump
			}
		}
		prev = ins.Addr
		seen++
	}
	if seen < 2000 {
		t.Fatal("too few loads observed")
	}
	// Streams must be dominated by +1 line transitions, with occasional
	// row-boundary jumps (the realism knob that caps prefetch accuracy).
	frac := float64(sequential) / float64(transitions)
	if frac < 0.85 || frac >= 1.0 {
		t.Fatalf("sequential fraction %v outside (0.85, 1.0): boundaries missing or dominant", frac)
	}
}

func TestChaseLoadsAreDependent(t *testing.T) {
	cfg := Config{
		Name:           "chase-only",
		Sites:          []SiteSpec{{Class: PatChase, Weight: 1}},
		FootprintLines: 4096, LoadFrac: 0.3, ChaseChainFrac: 1.0, ExecLatMean: 1,
	}
	g := MustNew(cfg)
	var loads, deps int
	for i := 0; i < 5000; i++ {
		ins := g.Next()
		if ins.Op == OpLoad {
			loads++
			if ins.DependsOnPrevLoad {
				deps++
			}
		}
	}
	if loads == 0 || deps != loads {
		t.Fatalf("chase chain frac 1.0: %d/%d dependent", deps, loads)
	}
}

func TestMixedSiteFollowsGuardBranch(t *testing.T) {
	cfg := Config{
		Name:           "mixed-only",
		Sites:          []SiteSpec{{Class: PatMixed, StrideLines: 1, Weight: 1}},
		FootprintLines: 1 << 16, LoadFrac: 0.3, MixedTakenProb: 0.5, ExecLatMean: 1,
	}
	g := MustNew(cfg)
	var lastGuardTaken, haveGuard bool
	var streamNear, farWhenNotTaken, violations int
	for i := 0; i < 30000; i++ {
		ins := g.Next()
		switch ins.Op {
		case OpBranch:
			lastGuardTaken, haveGuard = ins.Taken, true
		case OpLoad:
			if !haveGuard {
				continue
			}
			far := uint64(ins.Addr) >= farOffset
			if lastGuardTaken && far {
				violations++
			}
			if lastGuardTaken && !far {
				streamNear++
			}
			if !lastGuardTaken && far {
				farWhenNotTaken++
			}
			haveGuard = false
		}
	}
	if violations > 0 {
		t.Fatalf("%d taken-guard loads went to the far footprint", violations)
	}
	if streamNear == 0 || farWhenNotTaken == 0 {
		t.Fatalf("mixed site degenerate: near=%d far=%d", streamNear, farWhenNotTaken)
	}
}

func TestPhaseChangeReducesFootprint(t *testing.T) {
	cfg := testConfig()
	cfg.PhasePeriod = 10000
	g := MustNew(cfg)
	countFar := func(n int) int {
		far := 0
		for i := 0; i < n; i++ {
			ins := g.Next()
			if ins.Op == OpLoad && uint64(ins.Addr) >= farOffset {
				far++
			}
		}
		return far
	}
	phase0 := countFar(10000)
	phase1 := countFar(10000)
	if phase1 >= phase0/4 {
		t.Fatalf("alternate phase not cache-resident: far loads %d -> %d", phase0, phase1)
	}
}

func TestRegistryAllNamesConstructible(t *testing.T) {
	for _, name := range AllNames() {
		cfg, err := Lookup(name, testScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		g := MustNew(cfg)
		for i := 0; i < 100; i++ {
			g.Next()
		}
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, err := Lookup("not-a-trace", testScale); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestSpecListHas45Entries(t *testing.T) {
	if len(SpecHomogeneous45) != 45 {
		t.Fatalf("SPEC homogeneous list has %d entries, want 45", len(SpecHomogeneous45))
	}
	seen := map[string]bool{}
	for _, n := range SpecHomogeneous45 {
		if seen[n] {
			t.Fatalf("duplicate trace %s", n)
		}
		seen[n] = true
	}
}

func TestSimpointsOfSameFamilyDiffer(t *testing.T) {
	a := MustNew(mustLookup("605.mcf_s-1554B", testScale))
	b := MustNew(mustLookup("605.mcf_s-994B", testScale))
	diff := false
	for i := 0; i < 2000; i++ {
		if a.Next() != b.Next() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("two mcf simpoints produced identical streams")
	}
}

func TestCVPHasLargeIPFootprint(t *testing.T) {
	g := MustNew(mustLookup("server_013", testScale))
	ips := map[uint64]bool{}
	for i := 0; i < 60000; i++ {
		ins := g.Next()
		if ins.Op == OpLoad {
			ips[ins.IP] = true
		}
	}
	spec := MustNew(mustLookup("619.lbm_s-2676B", testScale))
	specIPs := map[uint64]bool{}
	for i := 0; i < 60000; i++ {
		ins := spec.Next()
		if ins.Op == OpLoad {
			specIPs[ins.IP] = true
		}
	}
	if len(ips) <= 4*len(specIPs) {
		t.Fatalf("CVP IP footprint (%d) should dwarf lbm's (%d)", len(ips), len(specIPs))
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpALU: "alu", OpLoad: "load", OpStore: "store", OpBranch: "branch",
	} {
		if op.String() != want {
			t.Errorf("Op %d = %q, want %q", op, op.String(), want)
		}
	}
}

func TestWrapAddNeverNegative(t *testing.T) {
	for _, d := range []int64{-5, -1, 0, 1, 7} {
		cur := uint64(3)
		for i := 0; i < 100; i++ {
			cur = wrapAdd(cur, d, 16)
			if cur >= 16 {
				t.Fatalf("wrapAdd escaped range: %d", cur)
			}
		}
	}
}

func TestSimpointJitterVariesIntensity(t *testing.T) {
	a := mustLookup("605.mcf_s-1554B", testScale)
	b := mustLookup("605.mcf_s-994B", testScale)
	if a.FootprintLines == b.FootprintLines {
		t.Fatal("simpoints of one family should differ in footprint")
	}
	// Jitter must stay bounded: same family, same order of magnitude.
	ratio := float64(a.FootprintLines) / float64(b.FootprintLines)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("jitter too wild: ratio %v", ratio)
	}
	// Deterministic.
	a2 := mustLookup("605.mcf_s-1554B", testScale)
	if a.FootprintLines != a2.FootprintLines || a.LoadFrac != a2.LoadFrac {
		t.Fatal("jitter not deterministic")
	}
}

func TestJitterKeepsConfigsValid(t *testing.T) {
	for _, name := range SpecHomogeneous45 {
		cfg := mustLookup(name, testScale)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestWrfHasPhaseBehaviour(t *testing.T) {
	cfg := mustLookup("621.wrf_s-6673B", testScale)
	if cfg.PhasePeriod == 0 {
		t.Fatal("wrf should alternate phases (registry models its physics phases)")
	}
	g := MustNew(cfg)
	countFar := func(n int) int {
		far := 0
		for i := 0; i < n; i++ {
			ins := g.Next()
			if ins.Op == OpLoad && uint64(ins.Addr)&^(uint64(1)<<63) >= farOffset {
				far++
			}
		}
		return far
	}
	// Memory intensity should differ between the two phases.
	a := countFar(int(cfg.PhasePeriod))
	b := countFar(int(cfg.PhasePeriod))
	if a == b {
		t.Fatalf("phases indistinguishable: %d vs %d far loads", a, b)
	}
}

func TestStoresShareSiteAddressSpace(t *testing.T) {
	g := MustNew(testConfig())
	loadLines := map[uint64]bool{}
	var storeAddrs []mem.Addr
	for i := 0; i < 30000; i++ {
		ins := g.Next()
		switch ins.Op {
		case OpLoad:
			loadLines[ins.Addr.LineID()] = true
		case OpStore:
			storeAddrs = append(storeAddrs, ins.Addr)
		}
	}
	if len(storeAddrs) == 0 {
		t.Fatal("no stores")
	}
	// Stores write near site cursors: a majority should land on lines the
	// loads also touch (read-modify-write behaviour).
	hits := 0
	for _, a := range storeAddrs {
		if loadLines[a.LineID()] {
			hits++
		}
	}
	if float64(hits)/float64(len(storeAddrs)) < 0.3 {
		t.Fatalf("stores disjoint from load footprint: %d/%d", hits, len(storeAddrs))
	}
}

func TestAddrOffsetIsolation(t *testing.T) {
	a := testConfig()
	b := testConfig()
	b.AddrOffset = 1 << 42
	ga, gb := MustNew(a), MustNew(b)
	for i := 0; i < 2000; i++ {
		ia, ib := ga.Next(), gb.Next()
		if ia.Op == OpLoad && ib.Op == OpLoad {
			if ib.Addr != ia.Addr+1<<42 {
				t.Fatalf("offset not applied uniformly: %#x vs %#x",
					uint64(ia.Addr), uint64(ib.Addr))
			}
		}
	}
}

// TestFillMatchesNext: a batch written in place is the stream Next returns,
// whatever the batch size and wherever a batch boundary falls — on every
// registered workload, at two address offsets, far enough to cross
// 621.wrf's 40k-instruction phase boundary and back.
func TestFillMatchesNext(t *testing.T) {
	const n = 120_000
	ref := make([]Instr, n)
	got := make([]Instr, n)
	for _, name := range AllNames() {
		for _, off := range []mem.Addr{0, 3 << 42} {
			cfg := mustLookup(name, testScale)
			cfg.AddrOffset = off
			g := MustNew(cfg)
			for i := range ref {
				ref[i] = g.Next()
			}
			for _, batch := range []int{1, 7, 256, 4096} {
				g := MustNew(cfg)
				for i := 0; i < n; i += batch {
					g.Fill(got[i:min(i+batch, n)])
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s offset %#x batch %d: instruction %d is %+v, Next gives %+v",
							name, uint64(off), batch, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestInstrIs24Bytes: the word-sized fields first, the four byte-sized ones
// packed after them.
func TestInstrIs24Bytes(t *testing.T) {
	if size := reflect.TypeOf(Instr{}).Size(); size != 24 {
		t.Fatalf("trace.Instr is %d bytes, want 24", size)
	}
}

// BenchmarkFill and BenchmarkNext price trace supply per instruction: a
// 512-instruction batch written in place, against one Next call (through
// the Generator interface, as a consumer without Fill pays) per instruction.
func BenchmarkFill(b *testing.B) {
	g := MustNew(mustLookup("605.mcf_s-1554B", testScale))
	buf := make([]Instr, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		g.Fill(buf)
	}
}

func BenchmarkNext(b *testing.B) {
	var g Generator = MustNew(mustLookup("605.mcf_s-1554B", testScale))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Next().IP
	}
	benchSink = sink
}

var benchSink uint64

// TestNewConcurrent: cursors built from several goroutines at once — the
// experiment engine's workers do — build and share one program per Config,
// and each produces the stream a cursor built alone afterwards does.
func TestNewConcurrent(t *testing.T) {
	cfgs := []Config{mustLookup("605.mcf_s-1554B", testScale), mustLookup("bfs-road", testScale)}
	for i := range cfgs {
		cfgs[i].Seed ^= 0xc0c0 // programs no other test has built
	}
	got := make([][]Instr, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Instr, 2000)
			MustNew(cfgs[g%len(cfgs)]).Fill(got[g])
		}(g)
	}
	wg.Wait()
	for g := range got {
		want := make([]Instr, 2000)
		MustNew(cfgs[g%len(cfgs)]).Fill(want)
		for k := range want {
			if got[g][k] != want[k] {
				t.Fatalf("goroutine %d: instruction %d is %+v, want %+v", g, k, got[g][k], want[k])
			}
		}
	}
}

// TestProgramKey: the program cache's key tells apart two configs that
// differ in any one field — every Config field and every field of each load
// site, walked by reflection so that a field added later is covered, and a
// site more or fewer — and two equal configs built apart share a key.
func TestProgramKey(t *testing.T) {
	key := func(c Config) string { return string(c.appendKey(nil)) }
	base := key(testConfig())
	if got := key(testConfig()); got != base {
		t.Fatalf("equal configs keyed %q and %q", base, got)
	}
	differs := func(what string, c Config) {
		t.Helper()
		if key(c) == base {
			t.Errorf("changing %s leaves the key %q", what, base)
		}
	}
	perturb := func(what string, v reflect.Value) {
		t.Helper()
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.125)
		default:
			t.Fatalf("%s: no perturbation for a %v field", what, v.Kind())
		}
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name != "Sites" {
			c := testConfig()
			perturb(name, reflect.ValueOf(&c).Elem().Field(i))
			differs(name, c)
			continue
		}
		for s := range testConfig().Sites {
			site := reflect.TypeOf(SiteSpec{})
			for j := 0; j < site.NumField(); j++ {
				c := testConfig()
				what := fmt.Sprintf("Sites[%d].%s", s, site.Field(j).Name)
				perturb(what, reflect.ValueOf(&c.Sites[s]).Elem().Field(j))
				differs(what, c)
			}
		}
		c := testConfig()
		c.Sites = c.Sites[:len(c.Sites)-1]
		differs("the site count (one fewer)", c)
		c = testConfig()
		c.Sites = append(c.Sites, SiteSpec{})
		differs("the site count (one more)", c)
	}
}
