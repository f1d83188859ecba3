package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clip/internal/golden"
	"clip/internal/runner"
)

// digestScales are the two small scales every experiment is pinned at: a
// cold two-channel-point sweep, and a warm-fork one (a distinct protocol
// with its own results, DESIGN.md §12).
var digestScales = []struct {
	name string
	sc   Scale
}{
	{"cold", Scale{Cores: 4, InstrPerCore: 1200, Warmup: 400, CacheDiv: 8,
		HomMixes: 2, HetMixes: 1, CloudMixes: 1, Channels: []int{4, 16}, Seed: 1, Workers: 2}},
	{"warm", Scale{Cores: 4, InstrPerCore: 1000, Warmup: 300, CacheDiv: 8,
		HomMixes: 1, HetMixes: 1, CloudMixes: 1, Channels: []int{8}, Seed: 2, Workers: 2, WarmFork: true}},
}

// renderAll runs every registered experiment at sc, all at once and from
// empty run caches, and returns each report rendered as its golden file
// holds it: String(), then the indented JSON.
func renderAll(sc Scale) (map[string][]byte, error) {
	runner.ResetShared()
	reps := make([][]byte, len(All()))
	errs := make([]error, len(All()))
	var wg sync.WaitGroup
	for i, e := range All() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := e.Run(sc)
			if err == nil {
				var js []byte
				js, err = json.MarshalIndent(rep, "", "  ")
				reps[i] = append(append([]byte(rep.String()), js...), '\n')
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	out := map[string][]byte{}
	for i, e := range All() {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, errs[i])
		}
		out[e.Name] = reps[i]
	}
	return out, nil
}

// goldenRuns memoises renderAll per digest scale, so every test that reads a
// scale shares one run set.
var goldenRuns = func() map[string]func() (map[string][]byte, error) {
	m := map[string]func() (map[string][]byte, error){}
	for _, ds := range digestScales {
		m[ds.name] = sync.OnceValues(func() (map[string][]byte, error) { return renderAll(ds.sc) })
	}
	return m
}()

// goldenRun returns the memoised renderings at the named digest scale.
func goldenRun(t *testing.T, scale string) map[string][]byte {
	t.Helper()
	reps, err := goldenRuns[scale]()
	if err != nil {
		t.Fatalf("%s: %v", scale, err)
	}
	return reps
}

// TestReportDigests pins every report's bytes: per digest scale and
// experiment, the rendering must equal testdata/reports/<scale>/<name>.txt.
// A change to how figures are declared, run or assembled must leave every
// file as it is; re-record one (-update) only for an intended change to a
// simulated result or to a report's layout, and say which in the commit.
func TestReportDigests(t *testing.T) {
	for _, ds := range digestScales {
		reps := goldenRun(t, ds.name)
		for _, e := range All() {
			if err := golden.Check("reports/"+ds.name+"/"+e.Name+".txt", reps[e.Name]); err != nil {
				t.Error(err)
			}
		}
		files, err := os.ReadDir(filepath.Join("testdata", "reports", ds.name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if _, ok := reps[strings.TrimSuffix(f.Name(), ".txt")]; !ok {
				t.Errorf("testdata/reports/%s/%s pins no registered experiment", ds.name, f.Name())
			}
		}
	}
}

// sameRenderings fails t for every experiment whose rendering in got differs
// from the golden run's.
func sameRenderings(t *testing.T, what string, want, got map[string][]byte) {
	t.Helper()
	for _, e := range All() {
		if d := golden.Diff(want[e.Name], got[e.Name]); d != "" {
			t.Errorf("%s: %s differs from the golden run (-golden +%s):\n%s", e.Name, what, what, d)
		}
	}
}

// TestReportDeterministicAcrossWorkerCounts is the engine's core guarantee:
// the same Scale (and Seed) renders byte-identical reports however many
// workers race over the jobs. The cold scale's whole registry runs again on
// one worker a figure, from empty run caches, against the golden run's two.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	want := goldenRun(t, "cold")
	sc := digestScales[0].sc
	sc.Workers = 1
	got, err := renderAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	sameRenderings(t, "workers=1", want, got)
}

// TestReportSkipEquivalence is the end-to-end form of the skip determinism
// contract (the per-Result form lives in internal/sim): the warm scale's
// whole registry runs again with the event-horizon fast path off, warm-up
// images included, from empty run caches, and must render byte-identical
// reports. (The cold scale's strict run costs four times the warm one's.)
func TestReportSkipEquivalence(t *testing.T) {
	want := goldenRun(t, "warm")
	sc := digestScales[1].sc
	sc.NoSkip = true
	got, err := renderAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	sameRenderings(t, "noskip", want, got)
}
