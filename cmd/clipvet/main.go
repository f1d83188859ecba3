// Command clipvet runs the project's determinism analyzers (see
// internal/analysis): directives, maporder, wallclock, floatsum and hotmap.
//
// Standalone:
//
//	go run ./cmd/clipvet ./...
//	clipvet -analyzers maporder,floatsum ./internal/experiments/
//	clipvet -json ./... > diags.json
//
// As a go vet tool (unitchecker protocol):
//
//	go build -o bin/clipvet ./cmd/clipvet
//	go vet -vettool=$(pwd)/bin/clipvet ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error
// (standalone mode); the vettool mode follows go vet's 0/1/2 protocol
// instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"clip/internal/analysis"
)

// jsonDiag is the machine-readable diagnostic shape emitted under -json, one
// array of these on stdout. CI turns them into GitHub annotations.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	// The go command drives vettools through a three-part protocol before
	// and during `go vet -vettool=`: a -V=full version handshake, a -flags
	// enumeration, and one invocation per package with a JSON *.cfg file.
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			analysis.PrintVersion("clipvet")
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			analysis.RunUnitchecker(args[0], analysis.Analyzers())
			return
		}
	}

	var (
		names    = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list     = flag.Bool("list", false, "list analyzers and exit")
		jsonMode = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: clipvet [-analyzers a,b] [-json] [packages]\n\n"+
				"Enforces the simulator determinism contract (see README).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clipvet:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clipvet:", err)
		os.Exit(2)
	}

	var all []jsonDiag
	exit := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(analyzers, fset, pkg.Files, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clipvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			exit = 1
			if *jsonMode {
				all = append(all, jsonDiag{
					File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			} else {
				fmt.Println(d)
			}
		}
	}
	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []jsonDiag{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "clipvet:", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}
