package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadArguments builds the command and checks that arguments no
// mode can use end the process with exit 2 and a one-line message on stderr,
// in every mode: -skip is validated before the -checkpoint branch, and a
// positional argument is not silently ignored.
func TestRejectsBadArguments(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "clipsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/clipsim: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"checkpoint-skip-garbage", `bad -skip value "sometimes" (want on or off)`,
			[]string{"-checkpoint", "run", "-instructions", "200", "-warmup", "50", "-skip=sometimes"}},
		{"experiment-skip-garbage", `bad -skip value "sometimes" (want on or off)`,
			[]string{"-experiment", "table2", "-skip=sometimes"}},
		{"positional", `unexpected argument "fig9"`, []string{"fig9"}},
		{"positional-after-flags", `unexpected argument "fig9"`, []string{"-list", "fig9"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("clipsim %v: err = %v, want exit status 2\nstdout: %s", tc.args, err, out)
			}
			if len(out) != 0 {
				t.Errorf("clipsim %v printed to stdout: %s", tc.args, out)
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
				t.Errorf("clipsim %v: stderr = %q, want one line containing %q", tc.args, msg, tc.want)
			}
		})
	}
}
