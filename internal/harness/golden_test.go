package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dylect/internal/atomicio"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden fixtures")

// goldenExperiments is the regression corpus: experiments whose cell sets
// cover every design (baseline, TMCC, DyLeCT, naive) at both compression
// settings, the DirectToML0 and PerfectCTE variants, 4KB page walks and a
// parameter sweep. Each fixture is the complete JSON export of a fresh
// runner after that one experiment, at the fixed-seed small config — any
// change to simulator behavior, cell enumeration, or export formatting
// shows up as a byte diff.
var goldenExperiments = []string{"fig4", "fig19", "fig25", "naive", "abl-gradual", "fig18", "motivation"}

// TestGoldenCorpus re-runs each corpus experiment and byte-compares its
// JSON export against testdata/golden/<name>.json. Regenerate with:
//
//	go test ./internal/harness -run TestGoldenCorpus -update
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, name := range goldenExperiments {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := ByName(name)
			if !ok {
				t.Fatalf("experiment %s not registered", name)
			}
			r := NewRunner(smallConfig())
			if _, err := RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 4}); err != nil {
				t.Fatal(err)
			}
			got, err := r.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				// Atomic replace: an interrupted -update cannot leave a
				// torn fixture behind.
				if err := atomicio.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden fixture missing (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s: export diverged from golden fixture (%d vs %d bytes).\n"+
					"If the change is intentional, regenerate with:\n"+
					"  go test ./internal/harness -run TestGoldenCorpus -update\n%s",
					name, len(got), len(want), diffHint(string(want), string(got)))
			}
		})
	}
}

// diffHint returns the first diverging line pair to make golden failures
// readable without an external diff tool.
func diffHint(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n-%s\n+%s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("files identical for %d lines, lengths differ (%d vs %d lines)", n, len(wl), len(gl))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
