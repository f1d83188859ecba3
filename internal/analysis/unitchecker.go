package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// vetConfig is the part of the JSON configuration file the go command hands
// a -vettool for each package unit (the unitchecker protocol) that this tool
// reads.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnitchecker executes the suite as a `go vet -vettool=` backend: the go
// command invokes the tool once per package with a JSON config file naming
// the sources and the export data of every dependency, already compiled.
// Exits 0 on success, 1 on load failure, 2 when diagnostics were reported —
// the exit protocol go vet expects.
func RunUnitchecker(cfgPath string, analyzers []*Analyzer) {
	cfg, diags, err := unitcheckFile(cfgPath, analyzers)
	if err != nil {
		if cfg != nil && cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

func unitcheckFile(cfgPath string, analyzers []*Analyzer) (*vetConfig, []Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, nil, fmt.Errorf("parsing vet config %s: %v", cfgPath, err)
	}
	// The analyzers export no facts, so a dependency's facts pass only has
	// to leave the (empty) vetx file the go command expects.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return cfg, nil, err
		}
	}
	if cfg.VetxOnly {
		return cfg, nil, nil
	}

	fset := token.NewFileSet()
	var all, nonTest []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return cfg, nil, err
		}
		all = append(all, f)
		if !strings.HasSuffix(name, "_test.go") {
			nonTest = append(nonTest, f)
		}
	}
	imp := resolvingImporter{
		imp: exportImporter(fset, cfg.PackageFile),
		// ImportMap translates source-level import paths (e.g. under
		// vendoring or test variants) to the canonical paths keyed in
		// PackageFile.
		importMap: cfg.ImportMap,
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	tpkg, err := conf.Check(cfg.ImportPath, fset, all, info)
	if err != nil {
		return cfg, nil, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}

	diags, err := RunAnalyzers(analyzers, fset, nonTest, all, tpkg, info)
	return cfg, diags, err
}

type resolvingImporter struct {
	imp       types.Importer
	importMap map[string]string
}

func (r resolvingImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := r.importMap[path]; ok {
		path = mapped
	}
	return r.imp.Import(path)
}

// PrintVersion implements the -V=full handshake: the go command hashes this
// line into its build cache key so edits to clipvet invalidate cached vet
// results.
func PrintVersion(progname string) {
	exe, err := os.Executable()
	if err == nil {
		if f, err2 := os.Open(exe); err2 == nil {
			h := sha256.New()
			_, _ = io.Copy(h, f)
			f.Close()
			fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
				progname, h.Sum(nil))
			return
		}
	}
	fmt.Printf("%s version devel\n", progname)
}
