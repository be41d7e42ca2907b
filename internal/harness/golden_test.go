package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"denovosync/internal/exp"
	"denovosync/internal/harness"
)

// -update regenerates the golden CSVs from the current simulator. Only do
// this deliberately (see EXPERIMENTS.md): the goldens pin the simulated
// results bit-for-bit, so engine optimizations that claim to be
// behavior-preserving must pass WITHOUT regenerating.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// gatedClaims are the paper claims that hold on the scale-10 goldens; a
// change that makes one deviate fails TestGoldenFigures, with -update too.
// Two claims that the 16-core Figure 3 golden evaluates deviate at this
// scale and stay ungated (evaluated and logged, neither asserted nor
// dropped): fig3-16c.ds-beats-ds0 (one kernel with DS > 1.05x DS0) and
// fig3-16c.traffic (DS0 traffic lower on 5 of 6 kernels). Both hold at
// paper scale (results.csv, make claims).
var gatedClaims = map[string]bool{
	"fig3-16c.ds0-beats-mesi":    true,
	"fig4-16c.parity":            true,
	"fig4-16c.heap-worse":        true,
	"fig4-16c.no-backoff-effect": true,
	"fig4-16c.traffic":           true,
	"fig5-16c.traffic":           true,
	"fig6-16c.tree-parity":       true,
	"fig6-16c.tree-traffic":      true,
	"fig6-16c.central-ds-damps":  true,
	"fig7.comparable-time":       true,
	"fig7.lower-traffic":         true,
	"fig7.winners":               true,
	"fig7.barrier-only-parity":   true,
}

// TestGoldenFigures pins the exact CSV output of every figure and
// ablation plan at reduced scale: Figures 3-6 and the nine ablations at
// 16 cores plus Figure 7 (its own per-app machine sizes), all at Scale
// 10, each built through exp.Reproduce. Any engine or protocol change
// that alters simulated timing, traffic, or event ordering shows up here
// as a byte-level diff; one that flips a gated paper claim fails too.
func TestGoldenFigures(t *testing.T) {
	known := map[string]bool{}
	for _, cs := range [][]harness.Claim{harness.Fig3Claims(16), harness.Fig4Claims(16),
		harness.Fig5Claims(16), harness.Fig6Claims(16), harness.Fig7Claims()} {
		for _, c := range cs {
			known[c.ID] = true
		}
	}
	for id := range gatedClaims {
		if !known[id] {
			t.Fatalf("gated claim %s names no claim of Figures 3-7", id)
		}
	}
	o := exp.Options{Scale: 10}
	for _, name := range exp.FigureNames() {
		name, file := name, name+"_16c_scale10.csv"
		if name == "fig7" {
			file = "fig7_scale10.csv"
		}
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			f, err := exp.Reproduce(name, 16, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range harness.ClaimsFor(f) {
				ok, detail := c.Check(f)
				switch {
				case !ok && gatedClaims[c.ID]:
					t.Errorf("gated claim %s deviates: %s (%s)", c.ID, c.Source, detail)
				case !ok:
					t.Logf("ungated claim %s deviates at this scale (%s)", c.ID, detail)
				}
			}
			var buf bytes.Buffer
			f.CSV(&buf)
			path := filepath.Join("testdata", file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s diverged from golden.\n%s", file, firstDiff(want, buf.Bytes()))
			}
		})
	}
}

// firstDiff renders the first differing line of two CSV bodies.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}
