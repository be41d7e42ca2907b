package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Journal reconciliation: merge N append-only journals — written by
// different machines, sessions, or shards of one grid — into one record
// set keyed by content-addressed run key. Because every run key hashes the
// full configuration and every simulation is cycle-exact deterministic,
// two records for the same key MUST carry the same result: an
// identical-key/identical-fingerprint pair is a trivial duplicate, and
// an identical-key/different-result pair is not a merge conflict to
// resolve but a determinism bug to report (Bayou's ordered-log merge
// with the strongest possible conflict oracle). reconcile never picks a
// winner silently — conflicting keys are escalated as structured
// Conflict findings and the summary's Err makes drivers fail loudly.

// ResultFingerprint is the content hash of what a record claims the run
// produced: status plus the sanitized stats and aux payload. Two
// journals agree on a key iff their records' fingerprints match. Error
// text, attempt counts, and the owning figure are excluded — they
// legitimately vary across hosts and sessions without the *result*
// differing.
func (rec *Record) ResultFingerprint() string {
	probe := struct {
		Status string          `json:"status"`
		Stats  interface{}     `json:"stats,omitempty"`
		Aux    json.RawMessage `json:"aux,omitempty"`
	}{Status: rec.Status, Aux: rec.Aux}
	if rec.Stats != nil {
		probe.Stats = sanitizeStats(rec.Stats)
	}
	b, err := json.Marshal(probe)
	if err != nil {
		panic(fmt.Sprintf("exp: marshaling record fingerprint: %v", err)) // unreachable: Record round-trips JSON
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// source is one journal's worth of records entering a merge, with the
// name (its path) conflict findings should blame.
type source struct {
	Name    string
	Records []*Record
}

// Conflict is a structured determinism finding: one run key with two or
// more successful records whose results differ. Given content-addressed
// keys and a deterministic simulator this must never happen, so a
// Conflict means a simulator (or journal-integrity) bug, and the merge
// refuses to pick a side.
type Conflict struct {
	Key string `json:"key"`
	Run Run    `json:"run"`
	// Results holds one entry per distinct fingerprint, naming every
	// source that produced it.
	Results []ConflictSide `json:"results"`
}

// ConflictSide is one of the disagreeing results.
type ConflictSide struct {
	Fingerprint string   `json:"fingerprint"`
	Sources     []string `json:"sources"`
	Record      *Record  `json:"record"`
}

func (c Conflict) String() string {
	var sides []string
	for _, s := range c.Results {
		sides = append(sides, fmt.Sprintf("%s from %s", s.Fingerprint, strings.Join(s.Sources, "+")))
	}
	return fmt.Sprintf("determinism conflict on %s (%s): %s", c.Key, c.Run.String(), strings.Join(sides, " vs "))
}

// MergeSummary describes one reconcile pass.
type MergeSummary struct {
	Sources    []string   `json:"sources"`
	Records    int        `json:"records"`    // records read across all sources
	Unique     int        `json:"unique"`     // distinct keys in the merged set
	Duplicates int        `json:"duplicates"` // identical-key/identical-fingerprint dedups
	Superseded int        `json:"superseded"` // failed records replaced by a success
	Conflicts  []Conflict `json:"conflicts,omitempty"`
}

// Err surfaces conflicts as a hard error listing every affected key;
// a clean merge returns nil.
func (s *MergeSummary) Err() error {
	if len(s.Conflicts) == 0 {
		return nil
	}
	var lines []string
	for _, c := range s.Conflicts {
		lines = append(lines, "  "+c.String())
	}
	return fmt.Errorf("exp: %d determinism conflict(s) — identical run keys with different results (file a bug, do not merge):\n%s",
		len(s.Conflicts), strings.Join(lines, "\n"))
}

func (s *MergeSummary) String() string {
	return fmt.Sprintf("%d sources, %d records -> %d unique (%d duplicates, %d superseded failures, %d conflicts)",
		len(s.Sources), s.Records, s.Unique, s.Duplicates, s.Superseded, len(s.Conflicts))
}

// merged tracks one key's state during a merge.
type merged struct {
	rec   *Record
	fp    string              // ResultFingerprint of rec (ok records only)
	srcs  map[string][]string // fingerprint -> sources that produced it
	order []string            // fingerprint first-seen order (deterministic findings)
}

// reconcile merges record sets by run key under the determinism
// contract. Within and across sources:
//
//   - a success supersedes any failure for the same key (the retry
//     semantic journals already rely on);
//   - two successes must agree on ResultFingerprint — agreement is a
//     duplicate, disagreement a Conflict finding;
//   - competing failures keep the record with the most attempts (error
//     text may legitimately differ across hosts — not a conflict).
//
// The merged map is complete even when conflicts exist (each conflicted
// key keeps its first-seen success so inspection tools still work), but
// callers must check summary.Err() before trusting or rendering it.
func reconcile(sources []source) (map[string]*Record, *MergeSummary) {
	sum := &MergeSummary{}
	state := make(map[string]*merged)
	for _, src := range sources {
		sum.Sources = append(sum.Sources, src.Name)
		for _, rec := range src.Records {
			sum.Records++
			m := state[rec.Key]
			if m == nil {
				m = &merged{srcs: map[string][]string{}}
				state[rec.Key] = m
			}
			if rec.Status == StatusOK {
				fp := rec.ResultFingerprint()
				if _, seen := m.srcs[fp]; !seen {
					m.order = append(m.order, fp)
				}
				m.srcs[fp] = append(m.srcs[fp], src.Name)
				switch {
				case m.rec == nil || m.rec.Status != StatusOK:
					if m.rec != nil {
						sum.Superseded++
					}
					m.rec, m.fp = rec, fp
				case m.fp == fp:
					sum.Duplicates++
				}
				// A disagreeing fingerprint is detected below once all
				// sources are in; keep the first-seen success.
				continue
			}
			// Failed record: only survives while no success exists.
			switch {
			case m.rec == nil:
				m.rec = rec
			case m.rec.Status == StatusOK:
				sum.Superseded++
			case rec.Attempts > m.rec.Attempts:
				m.rec = rec
				sum.Duplicates++
			default:
				sum.Duplicates++
			}
		}
	}

	out := make(map[string]*Record, len(state))
	keys := make([]string, 0, len(state))
	for k := range state { // order-insensitive: keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := state[k]
		out[k] = m.rec
		sum.Unique++
		if len(m.order) > 1 {
			c := Conflict{Key: k, Run: m.rec.Run}
			for _, fp := range m.order {
				srcs := m.srcs[fp]
				side := ConflictSide{Fingerprint: fp, Sources: srcs}
				if fp == m.fp {
					side.Record = m.rec
				}
				c.Results = append(c.Results, side)
			}
			sum.Conflicts = append(sum.Conflicts, c)
		}
	}
	return out, sum
}

// ReconcileJournals loads and merges journal files. With salvage false
// the strict loader applies (mid-file corruption is an error); with
// salvage true damaged journals contribute their recoverable records
// and each repair writes its sidecar report.
func ReconcileJournals(paths []string, salvage bool) (map[string]*Record, *MergeSummary, error) {
	var sources []source
	for _, path := range paths {
		var recs []*Record
		var err error
		if salvage {
			var rep *SalvageReport
			recs, rep, err = SalvageJournal(path)
			if err == nil && !rep.Clean() {
				if _, werr := rep.WriteSidecar(); werr != nil {
					return nil, nil, werr
				}
			}
		} else {
			recs, err = LoadJournal(path)
		}
		if err != nil {
			return nil, nil, err
		}
		sources = append(sources, source{Name: path, Records: recs})
	}
	records, sum := reconcile(sources)
	return records, sum, nil
}
