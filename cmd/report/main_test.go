package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// header is a complete `paperbench -csv` header line.
const header = "figure,workload,protocol,cores,exec_cycles,total_traffic," +
	"time_non-synch,time_compute,time_memory_stall,time_sw_backoff,time_hw_backoff,time_barrier," +
	"traffic_LD,traffic_ST,traffic_WB,traffic_Inv,traffic_SYNCH\n"

// good is one well-formed data row for header.
const good = `Figure 3 (16c),"single Q",M,16,100,200,1,2,3,4,5,6,7,8,9,10,11` + "\n"

// TestParseCSVRejectsMalformed: every malformed input is an error that
// names the offending line — never a panic, never a cell read as zero.
func TestParseCSVRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name, in, line string
	}{
		{"short header", "figure,workload\nfoo\n", "line 1"},
		{"header lacks exec_cycles", strings.Replace(header, "exec_cycles,", "", 1), "line 1"},
		{"second header lacks a column", header + good + strings.Replace(header, ",traffic_SYNCH", "", 1), "line 3"},
		{"data before any header", good + header, "line 1"},
		{"short row", header + "Figure 3 (16c),x,M\n", "line 2"},
		{"long row", header + strings.TrimSuffix(good, "\n") + ",12\n", "line 2"},
		{"row after a wider header", header + good + good[:len(good)-4] + "\n", "line 3"},
		{"non-numeric exec", header + strings.Replace(good, ",100,", ",lots,", 1), "line 2"},
		{"empty traffic class", header + strings.Replace(good, ",11\n", ",\n", 1), "line 2"},
		{"non-integer cores", header + strings.Replace(good, ",16,", ",16.5,", 1), "line 2"},
		{"bad quoting", header + good + "Figure 3 (16c),\"single Q,M\n", "line 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := parseCSV(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("parsed %d rows, want an error", len(rows))
			}
			if !strings.Contains(err.Error(), tc.line) {
				t.Fatalf("error %q does not name %s", err, tc.line)
			}
		})
	}
}

// TestParseCSVWellFormed: a well-formed section parses every column.
func TestParseCSVWellFormed(t *testing.T) {
	rows, err := parseCSV(strings.NewReader(header + good))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	rw := rows[0]
	if rw.figure != "Figure 3 (16c)" || rw.workload != "single Q" || rw.protocol != "M" || rw.cores != 16 ||
		rw.exec != 100 || rw.traffic != 200 || rw.times[5] != 6 || rw.classes[4] != 11 {
		t.Fatalf("row parsed as %+v", rw)
	}
}

// TestCheckedInResultsParse: the archived paper-scale results parse in full.
func TestCheckedInResultsParse(t *testing.T) {
	rows, err := rowsFromCSV(filepath.Join("..", "..", "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 170 {
		t.Fatalf("results.csv parsed into %d rows, want 170", len(rows))
	}
}

// claimsOn runs `report -csv path -claims -o <tmp>` and returns the
// deviating claim IDs, the totals line, and the error that makes the
// command exit 1.
func claimsOn(t *testing.T, path string) (deviating []string, total string, err error) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "claims.txt")
	err = run(path, "", outPath, true, false)
	out, rerr := os.ReadFile(outPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, m := range regexp.MustCompile(`(?m)^DEVIATES\s+(\S+)`).FindAllSubmatch(out, -1) {
		deviating = append(deviating, string(m[1]))
	}
	sort.Strings(deviating)
	return deviating, string(regexp.MustCompile(`total: .*`).Find(out)), err
}

// TestClaimsGate: every claim holds on the checked-in results, and
// tripling Figure 7's DS execution times breaks exactly the three claims
// about DS's Figure 7 execution time and fails the gate.
func TestClaimsGate(t *testing.T) {
	results := filepath.Join("..", "..", "results.csv")
	dev, total, err := claimsOn(t, results)
	if err != nil || len(dev) != 0 || total != "total: 28 claims hold, 0 deviate" {
		t.Fatalf("checked-in results: %s, deviating %v, err %v; want 28 hold, 0 deviate", total, dev, err)
	}

	doctored := filepath.Join(t.TempDir(), "doctored.csv")
	writeTripledFig7DS(t, results, doctored)
	dev, total, err = claimsOn(t, doctored)
	want := []string{"fig7.barrier-only-parity", "fig7.comparable-time", "fig7.winners"}
	if strings.Join(dev, " ") != strings.Join(want, " ") || total != "total: 25 claims hold, 3 deviate" {
		t.Fatalf("doctored results: %s, deviating %v; want 25 hold and %v", total, dev, want)
	}
	if err == nil {
		t.Fatal("doctored results passed the claims gate")
	}
}

// TestClaimsGateNeedsClaims: an input whose figures carry no claims
// fails the gate rather than passing vacuously.
func TestClaimsGateNeedsClaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.csv")
	in := header + strings.Replace(good, "Figure 3 (16c)", "Ablation X", 1)
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "claims.txt")
	if err := run(path, "", out, true, false); err == nil || !strings.Contains(err.Error(), "no claim evaluated") {
		t.Fatalf("err = %v, want the no-claim failure", err)
	}
}

// writeTripledFig7DS copies the results CSV from src to dst with the
// exec_cycles of every Figure 7 DS row tripled.
func writeTripledFig7DS(t *testing.T, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(bytes.NewReader(raw))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var col map[string]int
	for _, rec := range recs {
		if rec[0] == "figure" {
			col = map[string]int{}
			for i, name := range rec {
				col[name] = i
			}
			continue
		}
		if rec[col["figure"]] != "Figure 7" || rec[col["protocol"]] != "DS" {
			continue
		}
		v, err := strconv.ParseUint(rec[col["exec_cycles"]], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		rec[col["exec_cycles"]] = strconv.FormatUint(3*v, 10)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
