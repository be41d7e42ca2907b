package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFigureIsUsageError: an out-of-range -fig exits 2 with a
// usage error before the CPU profile or the journal is created. The test
// binary re-executes itself to run main in a child process.
func TestUnknownFigureIsUsageError(t *testing.T) {
	if args := os.Getenv("PAPERBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"paperbench"}, strings.Split(args, " ")...)
		main()
		os.Exit(0)
	}
	for _, fig := range []string{"99", "1", "-3", "8"} {
		dir := t.TempDir()
		prof, journal := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "run.jsonl")
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFigureIsUsageError$")
		cmd.Env = append(os.Environ(),
			"PAPERBENCH_TEST_ARGS=-fig "+fig+" -cpuprofile "+prof+" -journal "+journal)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-fig %s: err %v, want exit status 2\n%s", fig, err, out)
		}
		if !strings.Contains(string(out), "-fig "+fig+": want 3, 4, 5, 6 or 7") {
			t.Errorf("-fig %s: output lacks the usage error:\n%s", fig, out)
		}
		for _, f := range []string{prof, journal} {
			if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("-fig %s: %s was created before the usage error", fig, filepath.Base(f))
			}
		}
	}
}
