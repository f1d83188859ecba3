package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildClipvet compiles the command into a temp dir and returns the binary
// path. The go build cache makes repeat builds cheap.
func buildClipvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "clipvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/clipvet: %v\n%s", err, out)
	}
	return bin
}

// TestUnitcheckerHandshake drives the two pre-flight calls the go command
// makes before handing a vettool any work: -V=full must print a version line
// whose content keys the build cache (so edits to clipvet invalidate cached
// vet results), and -flags must enumerate the tool's analyzer flags.
func TestUnitcheckerHandshake(t *testing.T) {
	bin := buildClipvet(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("clipvet -V=full: %v", err)
	}
	if s := string(out); !strings.HasPrefix(s, "clipvet version ") || !strings.Contains(s, "buildID=") {
		t.Errorf("-V=full = %q, want \"clipvet version ... buildID=<hash>\"", s)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("clipvet -flags: %v", err)
	}
	if s := strings.TrimSpace(string(out)); s != "[]" {
		t.Errorf("-flags = %q, want []", s)
	}
}

// TestGoVetCleanTree runs the full unitchecker protocol end-to-end over a
// real slice of the audited tree: go vet invokes the tool once per package
// unit with a JSON *.cfg file — a facts pass for every dependency, which
// leaves an empty vetx file, then the diagnostic pass for the named package.
// The audited tree must come back clean.
func TestGoVetCleanTree(t *testing.T) {
	bin := buildClipvet(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/sim")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over ./internal/sim: %v\n%s", err, out)
	}
}

// TestSeededDiagnostic plants a map range in a deterministic package of a
// scratch module and checks that both drivers report it: the standalone
// -json mode (machine-readable, with position) and the go vet backend.
func TestSeededDiagnostic(t *testing.T) {
	bin := buildClipvet(t)
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module clip\n\ngo 1.22\n")
	write("internal/mem/mem.go", "package mem\n\nfunc Keys() map[int]int { return map[int]int{1: 1} }\n")
	write("internal/sim/sim.go", `package sim

import "clip/internal/mem"

func First() int {
	for k := range mem.Keys() {
		return k
	}
	return 0
}
`)

	// Standalone driver, machine-readable output.
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("clipvet -json over seeded module: err = %v, want exit 1\n%s", err, out)
	}
	var diags []struct {
		File     string
		Line     int
		Analyzer string
		Message  string
	}
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Analyzer != "maporder" || diags[0].Line != 6 ||
		!strings.HasSuffix(diags[0].File, "sim.go") {
		t.Errorf("want one maporder diagnostic at sim.go:6, got:\n%s", out)
	}

	// The go vet backend must reach the same verdict.
	cmd = exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	vetOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("go vet over seeded module succeeded; want a maporder failure")
	}
	if !strings.Contains(string(vetOut), "sim.go:6") || !strings.Contains(string(vetOut), "clipvet/maporder") {
		t.Errorf("go vet output missing the maporder diagnostic:\n%s", vetOut)
	}
}
