package analysis

import "testing"

// TestLoadRealPackage round-trips the standalone loader over a real module
// package: resolve through `go list -export`, type-check against gc export
// data, and run the full suite. internal/stats must load cleanly, come back
// alone (its dependencies are listed only for their export data) and, being
// part of the audited tree, produce zero diagnostics.
func TestLoadRealPackage(t *testing.T) {
	pkgs, fset, err := Load("../..", []string{"./internal/stats"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "clip/internal/stats" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("loaded %v, want just clip/internal/stats", paths)
	}
	p := pkgs[0]
	if len(p.Files) == 0 || p.Types == nil {
		t.Fatal("package loaded without files or type information")
	}
	diags, err := RunAnalyzers(Analyzers(), fset, p.Files, p.Files, p.Types, p.Info)
	if err != nil {
		t.Fatalf("RunAnalyzers(%s): %v", p.Path, err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on audited tree: %s", d)
	}
}
