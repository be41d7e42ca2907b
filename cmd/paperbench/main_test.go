package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFigureIsUsageError: an out-of-range -fig, an unknown
// -ablate or an unsupported -cores exits 2 with a usage error before the
// CPU profile or the journal is created. The test binary re-executes
// itself to run main in a child process.
func TestUnknownFigureIsUsageError(t *testing.T) {
	if args := os.Getenv("PAPERBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"paperbench"}, strings.Split(args, " ")...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct{ args, want string }{
		{"-fig 99", "-fig 99: want 3, 4, 5, 6 or 7"},
		{"-fig 1", "-fig 1: want 3, 4, 5, 6 or 7"},
		{"-fig -3", "-fig -3: want 3, 4, 5, 6 or 7"},
		{"-fig 8", "-fig 8: want 3, 4, 5, 6 or 7"},
		{"-ablate nosuch", "-ablate nosuch: want one of swbackoff, padding,"},
		{"-ablate fig3", "-ablate fig3: want one of"},
		{"-fig 3 -cores 32", "-cores 32: want 16 or 64"},
		{"-ablate padding -cores 12", "-cores 12: want 16 or 64"},
	} {
		dir := t.TempDir()
		prof, journal := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "run.jsonl")
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFigureIsUsageError$")
		cmd.Env = append(os.Environ(),
			"PAPERBENCH_TEST_ARGS="+c.args+" -cpuprofile "+prof+" -journal "+journal)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: err %v, want exit status 2\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%s: output lacks the usage error %q:\n%s", c.args, c.want, out)
		}
		for _, f := range []string{prof, journal} {
			if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: %s was created before the usage error", c.args, filepath.Base(f))
			}
		}
	}
}
