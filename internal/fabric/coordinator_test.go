package fabric

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"denovosync/internal/exp"
)

// fakeClock is an injectable, manually advanced clock: lease expiry
// choreography in these tests is exact, not timing-dependent.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}
func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }

func claim(t *testing.T, c *Coordinator, worker string) ClaimResponse {
	t.Helper()
	resp, err := c.Claim(ClaimRequest{Proto: ProtoVersion, Worker: worker})
	if err != nil {
		t.Fatalf("claim(%s): %v", worker, err)
	}
	return resp
}

func unitKeys(u *WorkUnit) []string {
	var keys []string
	for _, r := range u.Runs {
		keys = append(keys, r.Key())
	}
	return keys
}

func TestClaimShardsPlanOrder(t *testing.T) {
	plan := testPlan(10)
	c := New(plan, Config{UnitSize: 4})

	a := claim(t, c, "worker-a")
	b := claim(t, c, "worker-b")
	cc := claim(t, c, "worker-c")
	if len(a.Unit.Runs) != 4 || len(b.Unit.Runs) != 4 || len(cc.Unit.Runs) != 2 {
		t.Fatalf("unit sizes %d/%d/%d, want 4/4/2",
			len(a.Unit.Runs), len(b.Unit.Runs), len(cc.Unit.Runs))
	}
	// Units are disjoint and cover the plan in order.
	var got []string
	got = append(got, unitKeys(a.Unit)...)
	got = append(got, unitKeys(b.Unit)...)
	got = append(got, unitKeys(cc.Unit)...)
	var want []string
	for _, r := range plan.Runs {
		want = append(want, r.Key())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharding is not disjoint plan order:\n%v\nwant\n%v", got, want)
	}
	// Nothing left: a fourth worker idles (not done — work is leased).
	d := claim(t, c, "worker-d")
	if d.Unit != nil || d.Done {
		t.Fatalf("exhausted grid gave worker-d %+v", d)
	}
}

func TestDuplicatePlanEntriesLeaseOnce(t *testing.T) {
	plan := testPlan(3)
	plan.Runs = append(plan.Runs, plan.Runs[0]) // same config, extra row
	c := New(plan, Config{UnitSize: 10})
	a := claim(t, c, "worker-a")
	if len(a.Unit.Runs) != 3 {
		t.Fatalf("duplicate grid point leased twice: %d runs", len(a.Unit.Runs))
	}
}

// The dropped-heartbeat failure mode: a lease that stops renewing
// expires and its keys are reassigned to the next claimant; the original
// worker's heartbeat then reports the lease dead.
func TestLeaseExpiryReassignsKeys(t *testing.T) {
	clock := newFakeClock()
	c := New(testPlan(4), Config{UnitSize: 4, LeaseTTL: 30 * time.Second, Clock: clock.Now})

	a := claim(t, c, "worker-a")
	keysA := unitKeys(a.Unit)

	// Heartbeats inside the TTL keep the lease alive.
	clock.Advance(20 * time.Second)
	hb, err := c.Heartbeat(HeartbeatRequest{Proto: ProtoVersion, Worker: "worker-a", Lease: a.Unit.Lease})
	if err != nil || !hb.Live {
		t.Fatalf("in-TTL heartbeat not live: %+v, %v", hb, err)
	}
	clock.Advance(20 * time.Second) // renewed at t=20, still inside TTL
	if b := claim(t, c, "worker-b"); b.Unit != nil {
		t.Fatalf("live lease reassigned: %+v", b.Unit)
	}

	// Now the heartbeats stop (dropped by the network) and the TTL lapses.
	clock.Advance(31 * time.Second)
	b := claim(t, c, "worker-b")
	if b.Unit == nil {
		t.Fatalf("expired lease not reassigned")
	}
	if !reflect.DeepEqual(unitKeys(b.Unit), keysA) {
		t.Fatalf("reassigned keys %v, want worker-a's %v", unitKeys(b.Unit), keysA)
	}
	// The partitioned worker's next heartbeat tells it the lease is gone.
	hb, err = c.Heartbeat(HeartbeatRequest{Proto: ProtoVersion, Worker: "worker-a", Lease: a.Unit.Lease})
	if err != nil || hb.Live {
		t.Fatalf("expired lease still live: %+v, %v", hb, err)
	}
}

// The worker-restart failure mode: a fresh claim from the same worker ID
// supersedes its old leases immediately — no TTL wait.
func TestClaimSupersedesOwnLeases(t *testing.T) {
	clock := newFakeClock()
	c := New(testPlan(4), Config{UnitSize: 2, Clock: clock.Now})

	a1 := claim(t, c, "worker-a")
	a2 := claim(t, c, "worker-a") // restarted process, same ID
	if !reflect.DeepEqual(unitKeys(a2.Unit), unitKeys(a1.Unit)) {
		t.Fatalf("restart claim got %v, want its own old keys %v back", unitKeys(a2.Unit), unitKeys(a1.Unit))
	}
	if got := c.LeasedKeys(); len(got) != 2 {
		t.Fatalf("superseded lease still counted: %v", got)
	}
	// Another worker's lease is untouched by the supersession.
	b := claim(t, c, "worker-b")
	if len(b.Unit.Runs) != 2 {
		t.Fatalf("worker-b got %d runs, want the remaining 2", len(b.Unit.Runs))
	}
}

// The duplicate-completion failure mode, plus supersede and conflict
// escalation — the coordinator-side merge rules.
func TestCompleteIdempotencyAndConflicts(t *testing.T) {
	plan := testPlan(3)
	c := New(plan, Config{UnitSize: 3})
	claim(t, c, "worker-a")

	exec := newCountingExec()
	recOK := func(i int) *exp.Record {
		r := plan.Runs[i]
		rs, aux, _ := exec.exec(r)
		return &exp.Record{Key: r.Key(), Run: r, Status: exp.StatusOK, Attempts: 1, Stats: rs, Aux: aux}
	}
	complete := func(worker string, recs ...*exp.Record) CompleteResponse {
		resp, err := c.Complete(CompleteRequest{Proto: ProtoVersion, Worker: worker, Lease: ParkedLease, Records: recs})
		if err != nil {
			t.Fatalf("complete: %v", err)
		}
		return resp
	}

	failed := &exp.Record{Key: plan.Runs[0].Key(), Run: plan.Runs[0], Status: exp.StatusFailed, Attempts: 2, Error: "boom"}
	if resp := complete("worker-a", failed, recOK(1)); resp.Accepted != 2 {
		t.Fatalf("first completion: %+v", resp)
	}
	// A retransmitted identical result dedups.
	if resp := complete("worker-a", recOK(1)); resp.Duplicates != 1 || resp.Accepted != 0 {
		t.Fatalf("retransmit not deduped: %+v", resp)
	}
	// A success supersedes the journaled failure.
	if resp := complete("worker-b", recOK(0)); resp.Accepted != 1 {
		t.Fatalf("success did not supersede failure: %+v", resp)
	}
	if rec := c.Records()[plan.Runs[0].Key()]; rec.Status != exp.StatusOK {
		t.Fatalf("superseded record still failed: %+v", rec)
	}
	// A failure arriving after a terminal record is noise.
	if resp := complete("worker-c", failed); resp.Duplicates != 1 {
		t.Fatalf("late failure not dropped: %+v", resp)
	}
	// A record for a key outside this grid is rejected.
	other := testPlan(5).Runs[4]
	stray := &exp.Record{Key: other.Key(), Run: other, Status: exp.StatusOK, Attempts: 1}
	if resp := complete("worker-c", stray); resp.Rejected != 1 {
		t.Fatalf("stray key not rejected: %+v", resp)
	}

	// The acceptance-criteria case: same key, different result — a
	// structured determinism finding, never a silent merge.
	evil := recOK(2)
	complete("worker-a", recOK(2))
	evil.Stats.ExecTime += 7777
	if resp := complete("worker-evil", evil); resp.Conflicts != 1 {
		t.Fatalf("conflicting result not escalated: %+v", resp)
	}
	conflicts := c.Conflicts()
	if len(conflicts) != 1 || conflicts[0].Key != plan.Runs[2].Key() {
		t.Fatalf("conflict finding missing: %+v", conflicts)
	}
	if len(conflicts[0].Results) != 2 || conflicts[0].Results[1].Sources[0] != "worker-evil" {
		t.Fatalf("finding does not blame the conflicting worker: %+v", conflicts[0])
	}
	// The first-seen result stands.
	if rec := c.Records()[plan.Runs[2].Key()]; rec.Stats.ExecTime == evil.Stats.ExecTime {
		t.Fatalf("conflicting result silently replaced the original")
	}
	st, _ := c.Status()
	if len(st.Conflicts) != 1 {
		t.Fatalf("status hides the determinism finding: %+v", st)
	}
}

// The coordinator-crash failure mode: everything accepted before the
// crash is durable in the journal (and the conflict sidecar); a restart
// resumes mid-grid and re-issues only the missing keys.
func TestCoordinatorRestartReplaysJournal(t *testing.T) {
	plan := testPlan(6)
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	exec := newCountingExec()

	c, err := Open(plan, path, Config{UnitSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	claim(t, c, "worker-a")
	var recs []*exp.Record
	for _, r := range plan.Runs[:3] {
		rs, aux, _ := exec.exec(r)
		recs = append(recs, &exp.Record{Key: r.Key(), Run: r, Status: exp.StatusOK, Attempts: 1, Stats: rs, Aux: aux})
	}
	if _, err := c.Complete(CompleteRequest{Proto: ProtoVersion, Worker: "worker-a", Lease: ParkedLease, Records: recs}); err != nil {
		t.Fatal(err)
	}
	// Also raise a conflict finding so the sidecar has content to reload.
	evil := *recs[0]
	evilStats := *recs[0].Stats
	evilStats.ExecTime += 1
	evil.Stats = &evilStats
	resp, err := c.Complete(CompleteRequest{Proto: ProtoVersion, Worker: "worker-evil", Lease: ParkedLease, Records: []*exp.Record{&evil}})
	if err != nil || resp.Conflicts != 1 {
		t.Fatalf("conflict injection: %+v, %v", resp, err)
	}
	if err := c.Close(); err != nil { // crash stand-in: process gone, files remain
		t.Fatal(err)
	}

	c2, err := Open(plan, path, Config{UnitSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := len(c2.Records()); got != 3 {
		t.Fatalf("restart replayed %d records, want 3", got)
	}
	if got := c2.Conflicts(); len(got) != 1 || got[0].Key != plan.Runs[0].Key() {
		t.Fatalf("restart lost the determinism finding: %+v", got)
	}
	// Only the missing half of the grid is re-issued.
	b := claim(t, c2, "worker-b")
	want := []string{plan.Runs[3].Key(), plan.Runs[4].Key(), plan.Runs[5].Key()}
	if !reflect.DeepEqual(unitKeys(b.Unit), want) {
		t.Fatalf("restart re-issued %v, want only the missing %v", unitKeys(b.Unit), want)
	}
}

func TestProtocolMismatchRejected(t *testing.T) {
	c := New(testPlan(1), Config{})
	if _, err := c.Claim(ClaimRequest{Proto: "fabric.v0", Worker: "w"}); err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Fatalf("stale protocol claim accepted: %v", err)
	}
	if _, err := c.Complete(CompleteRequest{Proto: "", Worker: "w"}); err == nil {
		t.Fatalf("protocol-less completion accepted")
	}
	if _, err := c.Heartbeat(HeartbeatRequest{Proto: "nope", Worker: "w", Lease: "w#1"}); err == nil {
		t.Fatalf("protocol-less heartbeat accepted")
	}
}
