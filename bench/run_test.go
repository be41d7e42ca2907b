package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"denovosync"
)

// smoke is a one-cell workload on the real run path.
func smoke(t *testing.T) []workload {
	k, ok := denovosync.KernelByID("bar-central")
	if !ok {
		t.Fatal("no bar-central kernel")
	}
	return []workload{{"smoke", []cell{kernelCell(k, 16, 0, denovosync.DeNovoSync)}}}
}

// runSmoke measures the smoke workload for one pass at seed 1 and
// returns the exit code and the parsed last line of standard output.
func runSmoke(t *testing.T, digests digestTable) (int, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "smoke", "-seed", "1", "-seconds", "0"}, &stdout, &stderr, smoke(t), digests)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not a result: %v\n%s", err, stdout.String())
	}
	t.Logf("stderr: %s", stderr.String())
	return code, res
}

func TestSmokeRunMatchesCheckedInDigest(t *testing.T) {
	var digests digestTable
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		t.Fatal(err)
	}
	code, res := runSmoke(t, digests)
	if code != 0 || !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v; want exit 0 and one correct run", code, res)
	}
	for _, name := range []string{"wall_s", "events_per_s", "setup_s", "peak_rss_mb"} {
		if v, ok := res.Metrics[name]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", name, v)
		}
	}
}

func TestPlantedDigestMismatchFails(t *testing.T) {
	planted := digestTable{"1": {"bar-central/DS/16c": strings.Repeat("0", 64)}}
	code, res := runSmoke(t, planted)
	if code == 0 || res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Fatalf("exit %d, result %+v; want a non-zero exit and one failed run", code, res)
	}
}
