package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"denovosync/internal/exp"
)

// TestUsageErrors: a bad grid selection or flag value exits 2 with one
// "exp:" prefix, before any journal or CSV file is created. The test
// binary re-executes itself to run main in a child process.
func TestUsageErrors(t *testing.T) {
	if args := os.Getenv("EXP_TEST_ARGS"); args != "" {
		os.Args = append([]string{"exp"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	manifest := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(manifest, []byte(`{"name":"g","kernels":["tatas-counter"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// J and C stand for the journal and the CSV file.
	for _, c := range []struct{ args, want string }{
		{"run -fig nope -journal J", `exp: unknown figure "nope" (want one of fig3,`},
		{"run -fig fig3 -cores 12 -journal J", "exp: -cores 12: want 16 or 64"},
		{"run -fig fig7 -cores 32 -journal J", "exp: -cores 32: want 16 or 64"},
		{"run -fig fig3 -manifest " + manifest + " -journal J", "exp: -manifest and -fig are mutually exclusive"},
		{"run -cores 64 -journal J", "exp: select a grid with -manifest or -fig"},
		{"run -fig fig3 -shard 0/2 -csv C -journal J", "exp: -shard with -csv: a shard's CSV would lack"},
		{"run -fig fig3 -shard 2/2 -journal J", "exp: shard 2/2: want 0 <= k < n"},
		{"run -fig fig3 -shard 3/2 -journal J", "exp: shard 3/2: want 0 <= k < n"},
		{"run -fig fig3 -shard -1/2 -journal J", "exp: shard -1/2: want 0 <= k < n"},
		{"run -fig fig3 -shard 0/0 -journal J", "exp: shard 0/0: want 0 <= k < n"},
		{"run -fig fig3 -shard 0/-2 -journal J", "exp: shard 0/-2: want 0 <= k < n"},
		{"run -fig fig3 -shard 1 -journal J", "exp: -shard 1: want k/n"},
		{"run -fig fig3 -shard 1/2/3 -journal J", "exp: -shard 1/2/3: want k/n"},
		{"run -fig fig3 -shard +1/2 -journal J", "exp: -shard +1/2: want k/n"},
		{"run -fig fig3 -shard 01/2 -journal J", "exp: -shard 01/2: want k/n"},
		{"run -fig fig3 -shard a/b -journal J", "exp: -shard a/b: want k/n"},
		{"run -fig fig3 -shard /2 -journal J", "exp: -shard /2: want k/n"},
		{"status -fig nope -journal J", `exp: unknown figure "nope"`},
		{"status -fig fig3", "exp: status needs at least one -journal"},
		{"merge -fig fig3 -cores 12 -journal J", "exp: -cores 12: want 16 or 64"},
		{"plan -fig nope", `exp: unknown figure "nope"`},
	} {
		dir := t.TempDir()
		journal, csv := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "fig.csv")
		args := strings.Fields(c.args)
		for i, a := range args {
			switch a {
			case "J":
				args[i] = journal
			case "C":
				args[i] = csv
			}
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrors$")
		cmd.Env = append(os.Environ(), "EXP_TEST_ARGS="+strings.Join(args, "\n"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err %v, want exit status 2\n%s", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.args, c.want, out)
		}
		if strings.Contains(string(out), "exp: exp:") {
			t.Errorf("%s: prefix printed twice:\n%s", c.args, out)
		}
		for _, f := range []string{journal, csv} {
			if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: %s was created before the usage error", c.args, filepath.Base(f))
			}
		}
	}
}

// TestShardsMergeToSerialCSV drives a two-host grid through the built
// binary: shard 0/2 is stopped with -stop-after and resumed from its
// journal, shard 1/2 runs whole, and exp status and exp merge reconcile
// the two journals. No run may execute twice or land in both shards,
// and the merged CSV must equal an in-process serial run byte for byte.
func TestShardsMergeToSerialCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs a real grid")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	grid := []string{"-fig", "fig3", "-cores", "16", "-scale", "25"}
	plan, err := exp.FigurePlan("fig3", 16, exp.Options{Scale: 25})
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := (&exp.Engine{Workers: 1}).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := exp.MergeCSV(&want, plan, records); err != nil {
		t.Fatal(err)
	}

	run := func(wantExit int, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append(args, grid...)...).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("exp %s: %v", strings.Join(args, " "), err)
		}
		if code != wantExit {
			t.Fatalf("exp %s: exit %d, want %d\n%s", strings.Join(args, " "), code, wantExit, out)
		}
		if strings.Contains(string(out), "exp: exp:") {
			t.Errorf("exp %s: prefix printed twice:\n%s", strings.Join(args, " "), out)
		}
		return string(out)
	}
	pending := func(out string) string {
		t.Helper()
		m := regexp.MustCompile(`(\d+) pending`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("status output has no pending count:\n%s", out)
		}
		return m[1]
	}
	s0, s1 := filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")

	// Shard 0 stops after two runs; a -stop-after stop exits 0.
	out := run(0, "run", "-shard", "0/2", "-journal", s0, "-stop-after", "2", "-quiet")
	if strings.Count(out, "exp: stopped before the grid completed") != 1 {
		t.Errorf("stopped shard did not report the stop once:\n%s", out)
	}
	// Shard 1's journal does not exist yet: it counts as empty.
	if p := pending(run(0, "status", "-journal", s0, "-journal", s1)); p == "0" {
		t.Fatalf("status reports nothing pending for a partial grid")
	}
	run(0, "run", "-shard", "0/2", "-journal", s0, "-quiet")
	run(0, "run", "-shard", "1/2", "-journal", s1, "-quiet")

	inShard := map[string]string{}
	for _, path := range []string{s0, s1} {
		recs, err := exp.LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s is empty", filepath.Base(path))
		}
		for _, rec := range recs {
			if prev, ok := inShard[rec.Key]; ok {
				t.Errorf("key %s journaled in %s and %s", rec.Key, prev, filepath.Base(path))
			}
			inShard[rec.Key] = filepath.Base(path)
		}
	}
	for _, r := range plan.Runs {
		if _, ok := inShard[r.Key()]; !ok {
			t.Errorf("run %s is in neither shard's journal", r)
		}
	}

	out = run(0, "status", "-journal", s0, "-journal", s1)
	if p := pending(out); p != "0" {
		t.Errorf("status over both shards reports %s pending:\n%s", p, out)
	}

	merged := filepath.Join(dir, "merged.csv")
	run(0, "merge", "-journal", s0, "-journal", s1, "-o", merged)
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("merged shards differ from the serial run:\n%s\nvs serial\n%s", got, want.Bytes())
	}

	// A third journal that disagrees on one key is a determinism
	// conflict: status reports it and fails.
	recs, err := exp.LoadJournal(s1)
	if err != nil {
		t.Fatal(err)
	}
	bad := *recs[0]
	stats := *bad.Stats
	stats.ExecTime++
	bad.Stats = &stats
	line, err := json.Marshal(&bad)
	if err != nil {
		t.Fatal(err)
	}
	evil := filepath.Join(dir, "evil.jsonl")
	if err := os.WriteFile(evil, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(1, "status", "-journal", s0, "-journal", s1, "-journal", evil)
	if !strings.Contains(out, "determinism conflict on "+bad.Key) {
		t.Errorf("status does not report the conflict on %s:\n%s", bad.Key, out)
	}
}
