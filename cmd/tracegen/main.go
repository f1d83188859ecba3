// Command tracegen inspects the synthetic workload generators that stand in
// for the paper's SPEC/GAP/CloudSuite/CVP traces: it prints a window of the
// decoded instruction stream and a behavioural summary (instruction mix,
// distinct load IPs, footprint, line-touch rate).
//
// Usage:
//
//	tracegen -list
//	tracegen -trace 605.mcf_s-1554B -n 30
//	tracegen -trace 619.lbm_s-2676B -summary -n 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"clip/internal/trace"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list registered workload names")
		name    = flag.String("trace", "", "workload to generate")
		n       = flag.Int("n", 20, "instructions to emit (or to analyse with -summary)")
		summary = flag.Bool("summary", false, "print behavioural statistics instead of the stream")
		llc     = flag.Uint64("llc-lines", 4096, "LLC lines/core used to resolve footprints")
	)
	flag.Parse()

	if *list || *name == "" {
		fmt.Println("workloads:")
		for _, w := range trace.AllNames() {
			fmt.Println(" ", w)
		}
		return
	}

	cfg, err := trace.Lookup(*name, trace.Scale{LLCLinesPerCore: *llc})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	gen, err := trace.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if !*summary {
		each(gen, *n, func(i int, ins *trace.Instr) {
			switch ins.Op {
			case trace.OpLoad:
				dep := ""
				if ins.DependsOnPrevLoad {
					dep = " (dep)"
				}
				fmt.Printf("%6d  %#012x  load   %#x%s\n", i, ins.IP, uint64(ins.Addr), dep)
			case trace.OpStore:
				fmt.Printf("%6d  %#012x  store  %#x\n", i, ins.IP, uint64(ins.Addr))
			case trace.OpBranch:
				fmt.Printf("%6d  %#012x  branch taken=%v\n", i, ins.IP, ins.Taken)
			default:
				fmt.Printf("%6d  %#012x  alu    lat=%d\n", i, ins.IP, ins.ExecLat)
			}
		})
		return
	}

	var loads, stores, branches, deps int
	ips := map[uint64]bool{}
	lines := map[uint64]bool{}
	each(gen, *n, func(_ int, ins *trace.Instr) {
		switch ins.Op {
		case trace.OpLoad:
			loads++
			ips[ins.IP] = true
			lines[ins.Addr.LineID()] = true
			if ins.DependsOnPrevLoad {
				deps++
			}
		case trace.OpStore:
			stores++
		case trace.OpBranch:
			branches++
		}
	})
	total := float64(*n)
	fmt.Printf("workload:            %s\n", *name)
	fmt.Printf("instructions:        %d\n", *n)
	fmt.Printf("loads:               %d (%.1f%%), %d dependent\n", loads, 100*float64(loads)/total, deps)
	fmt.Printf("stores:              %d (%.1f%%)\n", stores, 100*float64(stores)/total)
	fmt.Printf("branches:            %d (%.1f%%)\n", branches, 100*float64(branches)/total)
	fmt.Printf("distinct load IPs:   %d\n", len(ips))
	fmt.Printf("distinct lines:      %d (%.1f lines/kilo-instr)\n",
		len(lines), float64(len(lines))/(total/1000))
}

// each hands the first n instructions of gen to f, generated in place a
// batch at a time.
func each(gen *trace.Cursor, n int, f func(i int, ins *trace.Instr)) {
	buf := make([]trace.Instr, 512)
	for i := 0; i < n; i += len(buf) {
		batch := buf[:min(len(buf), n-i)]
		gen.Fill(batch)
		for k := range batch {
			f(i+k, &batch[k])
		}
	}
}
