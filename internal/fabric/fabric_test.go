// The fault-injection battery: every failure mode the fabric claims to
// survive — killed workers, dropped heartbeats, duplicate completions,
// parked hand-offs, coordinator restart — must converge to a merged
// result set whose figure CSV is byte-identical to a serial
// single-machine run of the same plan.
package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"denovosync/internal/backoff"
	"denovosync/internal/exp"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// testPlan builds an n-point kernel grid (Iters distinguishes keys).
func testPlan(n int) exp.Plan {
	p := exp.Plan{ID: "fabric-test", Title: "fabric battery", Cores: 16}
	for i := 0; i < n; i++ {
		p.Runs = append(p.Runs, exp.Run{
			Kind: exp.KindKernel, Workload: "tatas-counter", Protocol: "M",
			Cores: 16, EqChecks: -1, Iters: i + 1,
		})
	}
	return p
}

// countingExec returns a deterministic result derived from the run
// content and counts executions per key — the oracle for "journaled
// work is never re-executed".
type countingExec struct {
	mu    sync.Mutex
	count map[string]int
}

func newCountingExec() *countingExec { return &countingExec{count: map[string]int{}} }

func (f *countingExec) exec(r exp.Run) (*stats.RunStats, json.RawMessage, error) {
	f.mu.Lock()
	f.count[r.Key()]++
	f.mu.Unlock()
	return &stats.RunStats{ExecTime: sim.Cycle(1000 + r.Iters), TotalTraffic: uint64(10 * r.Iters)}, nil, nil
}

// slowed wraps exec with a per-run stall (slow-worker choreography),
// sharing the same execution oracle.
func (f *countingExec) slowed(d time.Duration) func(exp.Run) (*stats.RunStats, json.RawMessage, error) {
	return func(r exp.Run) (*stats.RunStats, json.RawMessage, error) {
		rs, aux, err := f.exec(r)
		time.Sleep(d)
		return rs, aux, err
	}
}

func (f *countingExec) executions(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count[key]
}

// serialCSV is the ground truth: the plan executed serially on one
// machine through the exp engine, rendered to the figure CSV.
func serialCSV(t *testing.T, plan exp.Plan) []byte {
	t.Helper()
	eng := &exp.Engine{Workers: 1, Executor: newCountingExec().exec}
	records, _, err := eng.Execute(plan)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	var buf bytes.Buffer
	if err := exp.MergeCSV(&buf, plan, records); err != nil {
		t.Fatalf("serial baseline CSV: %v", err)
	}
	return buf.Bytes()
}

// fabricCSV renders the coordinator's merged record set.
func fabricCSV(t *testing.T, c *Coordinator, plan exp.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := exp.MergeCSV(&buf, plan, c.Records()); err != nil {
		t.Fatalf("fabric CSV: %v", err)
	}
	return buf.Bytes()
}

func workerCfg(t *testing.T, dir, id string, exec *countingExec) WorkerConfig {
	t.Helper()
	return WorkerConfig{
		ID:          id,
		JournalPath: filepath.Join(dir, id+".jsonl"),
		// Serial within a unit: StopAfter kill points land exactly where
		// the choreography says (parallelism still comes from running
		// several workers).
		EngineWorkers: 1,
		IdleWait:      5 * time.Millisecond,
		RPCBackoff:    backoff.Policy{Base: time.Millisecond, Max: 4 * time.Millisecond, Seed: 7},
		Executor:      exec.exec,
	}
}

// The happy path at fleet scale: three workers, no faults, byte-identity.
func TestWorkersConvergeToSerial(t *testing.T) {
	plan := testPlan(10)
	want := serialCSV(t, plan)
	c := New(plan, Config{UnitSize: 3})
	dir := t.TempDir()
	exec := newCountingExec()

	var wg sync.WaitGroup
	sums := make([]WorkerSummary, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(c, workerCfg(t, dir, fmt.Sprintf("worker-%d", i), exec))
			sum, err := w.Run()
			if err != nil {
				t.Errorf("worker-%d: %v", i, err)
			}
			sums[i] = sum
		}(i)
	}
	wg.Wait()

	if !c.Done() {
		t.Fatalf("grid not done after all workers exited")
	}
	if got := fabricCSV(t, c, plan); !bytes.Equal(got, want) {
		t.Fatalf("3-worker CSV differs from serial run:\n%s\nvs serial\n%s", got, want)
	}
	// No faults were injected, so nothing executed twice...
	for _, r := range plan.Runs {
		if n := exec.executions(r.Key()); n != 1 {
			t.Errorf("key %s executed %d times without faults", r.Key(), n)
		}
	}
	// ...and every record handed off by whoever executed it.
	total := 0
	for _, s := range sums {
		total += s.Executed
		if s.Parked != 0 || s.Killed {
			t.Errorf("clean run left parked/killed state: %+v", s)
		}
	}
	if total != len(plan.Runs) {
		t.Errorf("workers executed %d runs, grid has %d", total, len(plan.Runs))
	}
	st, err := c.Status()
	if err != nil || !st.Done || st.OK != len(plan.Runs) || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("final status wrong: %+v, %v", st, err)
	}
}

// The dedicated kill-and-resume case: a worker dies mid-grid after
// journaling (but not handing off) part of its work; the restarted
// worker re-offers its journal, re-claims only unfinished keys, and no
// key is ever executed twice.
func TestWorkerKillAndResume(t *testing.T) {
	plan := testPlan(6)
	want := serialCSV(t, plan)
	c := New(plan, Config{UnitSize: 3})
	dir := t.TempDir()
	exec := newCountingExec()

	cfg := workerCfg(t, dir, "worker-a", exec)
	// Kill budget aligned with the unit boundary: the worker dies with
	// exactly one fully journaled, never-handed-off unit.
	cfg.StopAfter = 3
	sum, err := NewWorker(c, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Killed || sum.Executed != 3 || sum.Parked != 3 {
		t.Fatalf("kill did not trigger: %+v", sum)
	}
	if got := len(c.Records()); got != 0 {
		t.Fatalf("coordinator saw %d records from a killed worker", got)
	}

	// Restart: same ID, same journal, no kill.
	cfg = workerCfg(t, dir, "worker-a", exec)
	sum, err = NewWorker(c, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Killed {
		t.Fatalf("resumed worker killed again: %+v", sum)
	}
	if !c.Done() {
		t.Fatalf("resume did not finish the grid")
	}
	// The resumed session re-offered the journal instead of re-running:
	// every key executed exactly once across both sessions.
	for i, r := range plan.Runs {
		if n := exec.executions(r.Key()); n != 1 {
			t.Errorf("run %d executed %d times across kill+resume", i, n)
		}
	}
	// The parked flush landed before any claim, so the coordinator never
	// re-issued the journaled keys: the resumed session executed exactly
	// the remaining half of the grid.
	if sum.Executed != 3 {
		t.Errorf("resumed worker executed %d runs, want the remaining 3 (%+v)", sum.Executed, sum)
	}
	if got := fabricCSV(t, c, plan); !bytes.Equal(got, want) {
		t.Fatalf("kill+resume CSV differs from serial run")
	}
}

// Graceful degradation: the coordinator is unreachable for the first
// completion attempts; the worker parks the journaled records and hands
// them off when the link heals. Nothing re-executes.
func TestWorkerParksWhileCoordinatorUnreachable(t *testing.T) {
	plan := testPlan(4)
	c := New(plan, Config{UnitSize: 4})
	exec := newCountingExec()

	ft := &FaultTransport{Inner: c, Plan: FaultPlan{FailCompletes: []int{1, 2}}}
	cfg := workerCfg(t, t.TempDir(), "worker-a", exec)
	cfg.RPCAttempts = 2 // both hand-off attempts fail -> park
	sum, err := NewWorker(ft, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Done() {
		t.Fatalf("parked records never handed off")
	}
	if sum.Parked != 0 || sum.Handed != 4 {
		t.Fatalf("parked flush bookkeeping: %+v", sum)
	}
	for _, r := range plan.Runs {
		if n := exec.executions(r.Key()); n != 1 {
			t.Errorf("parking caused re-execution of %s (%d times)", r.Key(), n)
		}
	}
}

// The full battery, per the acceptance criteria: a 3-worker grid with a
// mid-run worker kill (and restart), a dropped-heartbeat lease
// reassignment, a duplicate completion, failed claims/completions, and a
// coordinator restart mid-grid — all converging to a merged result set
// byte-identical to the serial run, with zero conflict findings.
func TestFaultBatteryConvergesToSerial(t *testing.T) {
	plan := testPlan(12)
	want := serialCSV(t, plan)
	dir := t.TempDir()
	journal := filepath.Join(dir, "coordinator.jsonl")

	c, err := Open(plan, journal, Config{UnitSize: 2, LeaseTTL: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	exec := newCountingExec()

	var wg sync.WaitGroup

	// worker-a: flaky link — a failed claim, a failed completion (parks,
	// then flushes), and a duplicated completion (retransmit race).
	wg.Add(1)
	go func() {
		defer wg.Done()
		ft := &FaultTransport{Inner: c, Plan: FaultPlan{
			FailClaims:         []int{2},
			FailCompletes:      []int{1},
			DuplicateCompletes: []int{3},
		}}
		if _, err := NewWorker(ft, workerCfg(t, dir, "worker-a", exec)).Run(); err != nil {
			t.Errorf("worker-a: %v", err)
		}
	}()

	// worker-c: partitioned — heartbeats all dropped, runs slowed past
	// the lease TTL, so its leases expire and reassign while it works;
	// its late completions arrive as duplicates (or firsts) and dedup.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ft := &FaultTransport{Inner: c, Plan: FaultPlan{MuteHeartbeats: 1}}
		cfg := workerCfg(t, dir, "worker-c", exec)
		cfg.Executor = exec.slowed(60 * time.Millisecond)
		cfg.HeartbeatEvery = 20 * time.Millisecond
		if _, err := NewWorker(ft, cfg).Run(); err != nil {
			t.Errorf("worker-c: %v", err)
		}
	}()

	// worker-b: killed after 2 runs, coordinator restarted from its
	// journal while b is down, then b restarts and resumes.
	cfgB := workerCfg(t, dir, "worker-b", exec)
	cfgB.StopAfter = 2
	sumB, err := NewWorker(c, cfgB).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sumB.Killed {
		t.Fatalf("worker-b kill did not trigger: %+v", sumB)
	}

	// Coordinator crash + restart mid-grid: live workers a and c keep
	// talking to the same *Coordinator value (their RPCs keep succeeding
	// — this models a fast restart), but the durable-state contract is
	// what matters: a *new* coordinator opened from the same journal
	// must agree with the live one at the end. Verified below.

	sumB2, err := NewWorker(c, workerCfg(t, dir, "worker-b", exec)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sumB2.Killed {
		t.Fatalf("worker-b resume killed: %+v", sumB2)
	}
	wg.Wait()

	if !c.Done() {
		st, _ := c.Status()
		t.Fatalf("battery did not converge: %+v", st)
	}
	if got := c.Conflicts(); len(got) != 0 {
		t.Fatalf("deterministic duplicates raised conflicts: %+v", got)
	}
	if got := fabricCSV(t, c, plan); !bytes.Equal(got, want) {
		t.Fatalf("battery CSV differs from serial run:\n%s\nvs serial\n%s", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The coordinator-restart half of the criteria: reopen from the
	// journal and require the identical merged result set — the crash
	// lost nothing.
	c2, err := Open(plan, journal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Done() {
		t.Fatalf("restarted coordinator is missing results")
	}
	if got := fabricCSV(t, c2, plan); !bytes.Equal(got, want) {
		t.Fatalf("restarted coordinator CSV differs from serial run")
	}

	// And the journals reconcile externally too: coordinator + all three
	// worker journals merge with zero determinism conflicts.
	paths := []string{journal}
	for _, id := range []string{"worker-a", "worker-b", "worker-c"} {
		paths = append(paths, filepath.Join(dir, id+".jsonl"))
	}
	records, sum, err := exp.ReconcileJournals(paths, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Err(); err != nil {
		t.Fatalf("journal reconciliation found conflicts: %v", err)
	}
	var buf bytes.Buffer
	if err := exp.MergeCSV(&buf, plan, records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("reconciled journals CSV differs from serial run")
	}
}

// The wire transport: the same convergence over real loopback HTTP, and
// protocol errors surfacing as client errors.
func TestHTTPTransportRoundTrip(t *testing.T) {
	plan := testPlan(6)
	want := serialCSV(t, plan)
	c := New(plan, Config{UnitSize: 2})
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	dir := t.TempDir()
	exec := newCountingExec()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(Dial(srv.URL), workerCfg(t, dir, fmt.Sprintf("http-worker-%d", i), exec))
			if _, err := w.Run(); err != nil {
				t.Errorf("http-worker-%d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if got := fabricCSV(t, c, plan); !bytes.Equal(got, want) {
		t.Fatalf("HTTP-transport CSV differs from serial run")
	}
	st, err := Dial(srv.URL).Status()
	if err != nil || !st.Done || st.OK != len(plan.Runs) || st.Proto != ProtoVersion {
		t.Fatalf("HTTP status: %+v, %v", st, err)
	}
	// A stale worker fails loudly at the protocol gate.
	if _, err := Dial(srv.URL).Claim(ClaimRequest{Proto: "fabric.v0", Worker: "old"}); err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Fatalf("stale protocol not rejected over HTTP: %v", err)
	}
}
