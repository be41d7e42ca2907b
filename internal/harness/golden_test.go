package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden CSVs from the current simulator. Only do
// this deliberately (see EXPERIMENTS.md): the goldens pin the simulated
// results bit-for-bit, so engine optimizations that claim to be
// behavior-preserving must pass WITHOUT regenerating.
var updateGolden = flag.Bool("update", false, "rewrite golden testdata files")

// TestGoldenFigures pins the exact CSV output of the reduced-scale paper
// figures: Figures 3-6 at 16 cores plus Figure 7 (its own per-app machine
// sizes), all at Scale 10. Any engine or protocol change that alters
// simulated timing, traffic, or event ordering shows up here as a
// byte-level diff.
func TestGoldenFigures(t *testing.T) {
	o := Options{Scale: 10}
	for _, g := range []struct {
		file string
		run  func() (*Figure, error)
	}{
		{"fig3_16c_scale10.csv", func() (*Figure, error) { return Fig3(16, o) }},
		{"fig4_16c_scale10.csv", func() (*Figure, error) { return Fig4(16, o) }},
		{"fig5_16c_scale10.csv", func() (*Figure, error) { return Fig5(16, o) }},
		{"fig6_16c_scale10.csv", func() (*Figure, error) { return Fig6(16, o) }},
		{"fig7_scale10.csv", func() (*Figure, error) { return Fig7(o) }},
	} {
		g := g
		t.Run(g.file, func(t *testing.T) {
			t.Parallel()
			f, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			f.CSV(&buf)
			path := filepath.Join("testdata", g.file)
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
				t.Fatalf("%s diverged from golden.\n%s", g.file, firstDiff(want, buf.Bytes()))
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
