// Package golden pins test output to committed files. A pinned value lives
// in a file under the test's testdata directory, so an intended change of
// behaviour is re-recorded by rewriting the files and reviewed as a line
// diff of what moved:
//
//	go test ./internal/sim/ ./internal/experiments/ -update
//	git diff
//
// Only _test.go files import this package, so only those test binaries
// take -update.
package golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata instead of comparing with them")

// Check compares got with the golden file testdata/<name> ('/'-separated).
// Under -update it writes got there instead and reports only a failed
// write, so every other check of the test still runs and still fails.
func Check(name string, got []byte) error {
	path := filepath.Join("testdata", filepath.FromSlash(name))
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, got, 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (record it with -update)", err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s differs from this tree's output (-file +tree):\n%s", path, Diff(want, got))
	}
	return nil
}

// CheckJSON is Check of v as indented JSON, newline-terminated.
func CheckJSON(name string, v any) error {
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return Check(name, append(got, '\n'))
}

// contextLines is how many unchanged lines Diff shows around a change.
const contextLines = 2

// maxCells bounds the edit-script table; past it the differing middle of
// two texts is shown as one removal and one insertion.
const maxCells = 1 << 22

// Diff returns a line diff from a to b: hunks headed "@@ -i +j @@" with the
// 1-based line numbers of their first lines, then unchanged lines prefixed
// " ", removed ones "-" and added ones "+". It is empty when a equals b.
func Diff(a, b []byte) string {
	x, y := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	pre := 0
	for pre < len(x) && pre < len(y) && x[pre] == y[pre] {
		pre++
	}
	suf := 0
	for suf < len(x)-pre && suf < len(y)-pre && x[len(x)-1-suf] == y[len(y)-1-suf] {
		suf++
	}
	// ops is the edit script: ' ' keeps a line of both, '-' takes one of x,
	// '+' one of y.
	ops := bytes.Repeat([]byte{' '}, pre)
	ops = append(ops, script(x[pre:len(x)-suf], y[pre:len(y)-suf])...)
	ops = append(ops, bytes.Repeat([]byte{' '}, suf)...)

	// Show every op within contextLines of a change.
	show := make([]bool, len(ops))
	for k, op := range ops {
		if op != ' ' {
			for d := max(0, k-contextLines); d <= min(len(ops)-1, k+contextLines); d++ {
				show[d] = true
			}
		}
	}
	var out strings.Builder
	i, j := 0, 0 // the lines of x and y before op k
	for k, op := range ops {
		if show[k] {
			if k == 0 || !show[k-1] {
				fmt.Fprintf(&out, "@@ -%d +%d @@\n", i+1, j+1)
			}
			line := x[min(i, len(x)-1)]
			if op == '+' {
				line = y[j]
			}
			fmt.Fprintf(&out, "%c%s\n", op, line)
		}
		if op != '+' {
			i++
		}
		if op != '-' {
			j++
		}
	}
	return out.String()
}

// script returns a shortest edit script from x to y, by the longest common
// subsequence of their lines.
func script(x, y []string) []byte {
	n, m := len(x), len(y)
	if n*m > maxCells {
		return append(bytes.Repeat([]byte{'-'}, n), bytes.Repeat([]byte{'+'}, m)...)
	}
	// lcs[i*(m+1)+j] is the length of the longest common subsequence of
	// x[i:] and y[j:].
	lcs := make([]int32, (n+1)*(m+1))
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if x[i] == y[j] {
				lcs[i*(m+1)+j] = lcs[(i+1)*(m+1)+j+1] + 1
			} else {
				lcs[i*(m+1)+j] = max(lcs[(i+1)*(m+1)+j], lcs[i*(m+1)+j+1])
			}
		}
	}
	ops := make([]byte, 0, n+m)
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && x[i] == y[j]:
			ops = append(ops, ' ')
			i++
			j++
		case j == m || i < n && lcs[(i+1)*(m+1)+j] >= lcs[i*(m+1)+j+1]:
			ops = append(ops, '-')
			i++
		default:
			ops = append(ops, '+')
			j++
		}
	}
	return ops
}
