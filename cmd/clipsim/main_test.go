package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"clip/internal/snapshot"
)

// buildClipsim builds the command into the test's temporary directory.
func buildClipsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "clipsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/clipsim: %v\n%s", err, out)
	}
	return bin
}

// TestRejectsBadArguments builds the command and checks that arguments no
// mode can use end the process with exit 2 and a one-line message on stderr,
// in every mode: -skip is validated before the -checkpoint branch, and a
// positional argument is not silently ignored.
func TestRejectsBadArguments(t *testing.T) {
	bin := buildClipsim(t)
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"checkpoint-skip-garbage", `bad -skip value "sometimes" (want on or off)`,
			[]string{"-checkpoint", "run", "-instructions", "200", "-warmup", "50", "-skip=sometimes"}},
		{"experiment-skip-garbage", `bad -skip value "sometimes" (want on or off)`,
			[]string{"-experiment", "table2", "-skip=sometimes"}},
		{"experiment-list-unknown", `unknown experiment "nope"`, []string{"-experiment", "table2,nope"}},
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

// TestExperimentOutput: stdout holds only the reports, so it is the same
// bytes on every run — the time an experiment took goes to stderr — and with
// -json it is one JSON array with a report per experiment named.
func TestExperimentOutput(t *testing.T) {
	bin := buildClipsim(t)
	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var errBuf strings.Builder
		cmd.Stderr = &errBuf
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("clipsim %v: %v\nstderr: %s", args, err, errBuf.String())
		}
		return string(out), errBuf.String()
	}

	out, errOut := run("-experiment", "table2")
	if !strings.HasPrefix(out, "### table2 ") || strings.Contains(out, "(table2 in ") {
		t.Errorf("-experiment table2: stdout %q, want the report and no timing line", out)
	}
	if !strings.HasPrefix(errOut, "(table2 in ") {
		t.Errorf("-experiment table2: stderr %q, want the timing line", errOut)
	}

	out, _ = run("-experiment", "table2", "-json")
	var reports []struct{ Name string }
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("-experiment table2 -json: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0].Name != "table2" {
		t.Errorf("-experiment table2 -json decoded to %+v, want one report named table2", reports)
	}
}

// TestRefusesOlderImage: an image of the previous format version is refused
// when it is opened — exit 1 and the version error on one line, nothing
// decoded and no panic — which is what CI's image-compatibility step requires
// of a version bump, checked here without a base build.
func TestRefusesOlderImage(t *testing.T) {
	bin := buildClipsim(t)
	older := uint32(snapshot.Version - 1)
	image := binary.LittleEndian.AppendUint32(nil, snapshot.Magic)
	image = binary.LittleEndian.AppendUint32(image, older)
	image = append(image, make([]byte, 64)...) // whatever that version went on to say
	file := filepath.Join(t.TempDir(), "older.ckpt")
	if err := os.WriteFile(file, image, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-checkpoint", "load", "-checkpoint-file", file, "-instructions", "200", "-warmup", "50")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("loading a version-%d image: err = %v, want exit status 1\nstdout: %s\nstderr: %s", older, err, out, stderr.String())
	}
	want := fmt.Sprintf("unsupported version %d (want %d)", older, snapshot.Version)
	if msg := stderr.String(); !strings.Contains(msg, want) || strings.Count(msg, "\n") != 1 || len(out) != 0 {
		t.Errorf("loading a version-%d image: stdout %q, stderr %q, want only one line containing %q", older, out, msg, want)
	}
}
