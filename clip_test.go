package clip

import (
	"runtime"
	"testing"
)

func TestFacadeQuickRun(t *testing.T) {
	cfg := DefaultConfig(4, 2, 8)
	cfg.InstrPerCore = 4000
	cfg.WarmupInstr = 1000
	cfg.Prefetcher = "berti"
	cc := DefaultCLIPConfig()
	cfg.CLIP = &cc
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished || res.MeanIPC() <= 0 {
		t.Fatalf("run failed: finished=%v ipc=%v", res.Finished, res.MeanIPC())
	}
	if res.Clip == nil {
		t.Fatal("CLIP stats missing")
	}
}

func TestFacadeMixHelpers(t *testing.T) {
	if got := len(HomogeneousMixes(8, 0)); got != 45 {
		t.Fatalf("homogeneous mixes = %d, want 45", got)
	}
	if got := len(HeterogeneousMixes(7, 8, 1)); got != 7 {
		t.Fatalf("heterogeneous mixes = %d, want 7", got)
	}
	if got := len(CloudCVPMixes(8, 0)); got != 15 {
		t.Fatalf("cloud/cvp mixes = %d, want 15", got)
	}
	if len(Workloads()) < 70 {
		t.Fatalf("workload registry too small: %d", len(Workloads()))
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(Experiments()) < 25 {
		t.Fatal("experiment registry incomplete")
	}
	rep, err := RunExperiment("table2", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	kb := rep.Values["total.KB"]
	if kb < 1.4 || kb > 1.7 {
		t.Fatalf("storage %.2f KB, want ~1.53 (paper: 1.56)", kb)
	}
	if _, err := RunExperiment("not-a-fig", QuickScale()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeStorage(t *testing.T) {
	if n := len(StorageBudget(DefaultCLIPConfig(), 512)); n < 6 {
		t.Fatalf("storage budget rows = %d", n)
	}
	b := TotalStorageBytes(DefaultCLIPConfig(), 512)
	if b < 1400 || b > 1700 {
		t.Fatalf("total storage %v bytes", b)
	}
}

func TestFacadeRunnerNormalization(t *testing.T) {
	cfg := DefaultConfig(4, 2, 8)
	cfg.InstrPerCore = 4000
	cfg.WarmupInstr = 1000
	r := NewRunner(cfg)
	mix := HomogeneousMixes(4, 1)[0]
	ws, _, _, err := r.NormalizedWS(mix, Variant{Name: "no-pf"})
	if err != nil {
		t.Fatal(err)
	}
	if ws < 0.99 || ws > 1.01 {
		t.Fatalf("self-normalized WS = %v", ws)
	}
}

// TestRunRetainsNoDecodedTrace: a finished run leaves no decoded instructions
// behind. On bench's pt_mesh64 point (64 cores, 8 channels, one SPEC+GAP mix,
// berti+CLIP) every core runs well past its budget while the slowest
// finishes, and what the process keeps afterwards is the trace programs
// (loop bodies and chase tables, tens of kilobytes a core), not the
// instructions generated from them — a 512 KB window a core would be 32 MB.
// Run closes its System, which files the System's slabs for a later
// NewSystem of 64 cores (sim.System.Close). The free list lets go of them
// over two collections, each aging it once it has ended, and a third frees
// them; so the test collects four times before each reading, and the filed
// slabs count against the bound if they outlive that.
func TestRunRetainsNoDecodedTrace(t *testing.T) {
	cfg := DefaultConfig(64, 8, 8)
	cfg.Workload = HeterogeneousMixes(1, 64, 1)[0].Benchmarks
	cfg.InstrPerCore, cfg.WarmupInstr = 8000, 0
	cfg.Prefetcher = "berti"
	cc := DefaultCLIPConfig()
	cfg.CLIP = &cc
	var before, after runtime.MemStats
	collect := func() {
		for i := 0; i < 4; i++ {
			runtime.GC()
		}
	}
	collect()
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	collect()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("a pt_mesh64 run leaves the heap %.2f MB larger", float64(grew)/(1<<20))
	if grew >= 8<<20 {
		t.Fatalf("a pt_mesh64 run left the heap %d bytes larger, want < 8 MB", grew)
	}
}
