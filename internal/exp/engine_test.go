package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"denovosync/internal/alloc"
	"denovosync/internal/cpu"
	"denovosync/internal/machine"
	"denovosync/internal/sim"
	"denovosync/internal/stats"
)

// fakePlan builds an n-point grid that a fake executor can serve.
func fakePlan(n int) Plan {
	p := Plan{ID: "fake"}
	for i := 0; i < n; i++ {
		p.Runs = append(p.Runs, Run{
			Kind: KindKernel, Workload: "tatas-counter", Protocol: "M",
			Cores: 16, EqChecks: -1, Iters: i + 1, // Iters distinguishes the keys
		})
	}
	return p
}

// fakeExec returns a deterministic result derived from the run content
// and counts executions per key.
type fakeExec struct {
	mu    sync.Mutex
	count map[string]int
}

func newFakeExec() *fakeExec { return &fakeExec{count: map[string]int{}} }

func (f *fakeExec) exec(r Run) (*stats.RunStats, json.RawMessage, error) {
	f.mu.Lock()
	f.count[r.Key()]++
	f.mu.Unlock()
	return &stats.RunStats{ExecTime: sim.Cycle(1000 + r.Iters), TotalTraffic: uint64(10 * r.Iters)}, nil, nil
}

func (f *fakeExec) executions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.count {
		n += c
	}
	return n
}

func TestEngineStopAfterAndResumeExecutesNothingTwice(t *testing.T) {
	plan := fakePlan(9)
	path := filepath.Join(t.TempDir(), "grid.jsonl")

	j, prior, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := newFakeExec()
	eng := &Engine{Workers: 4, Journal: j, Prior: prior, StopAfter: 3, Executor: fake.exec}
	_, sum, err := eng.Execute(plan)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted Execute: err=%v, want ErrStopped", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	firstBatch := fake.executions()
	// In-flight runs finish after the stop, so at least StopAfter and at
	// most StopAfter+workers runs completed; all must be journaled.
	if firstBatch < 3 || firstBatch > 3+4 {
		t.Fatalf("first session executed %d runs, want 3..7", firstBatch)
	}
	if sum.Executed != firstBatch {
		t.Fatalf("summary says %d executed, fake saw %d", sum.Executed, firstBatch)
	}

	// Resume: only the missing runs execute; nothing re-runs.
	j, prior, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != firstBatch {
		t.Fatalf("journal has %d records, want %d", len(prior), firstBatch)
	}
	fake2 := newFakeExec()
	eng2 := &Engine{Workers: 4, Journal: j, Prior: prior, Executor: fake2.exec}
	records, sum2, err := eng2.Execute(plan)
	if err != nil {
		t.Fatalf("resumed Execute: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fake2.executions(), len(plan.Runs)-firstBatch; got != want {
		t.Errorf("resume executed %d runs, want exactly the %d missing ones", got, want)
	}
	if sum2.Resumed != firstBatch {
		t.Errorf("resume skipped %d, want %d", sum2.Resumed, firstBatch)
	}
	for _, r := range plan.Runs {
		if fake.count[r.Key()]+fake2.count[r.Key()] != 1 {
			t.Errorf("run %s executed %d+%d times, want exactly once",
				r, fake.count[r.Key()], fake2.count[r.Key()])
		}
	}
	if len(records) != len(plan.Runs) {
		t.Errorf("merged record set has %d entries, want %d", len(records), len(plan.Runs))
	}
}

// TestEngineDeduplicatesIdenticalRuns: two grid points with identical
// configuration but different labels (the hwparams ablation's "paper"
// and "inc=1" variants coincide at 16 cores) execute exactly once, and
// both plan rows render from the shared record.
func TestEngineDeduplicatesIdenticalRuns(t *testing.T) {
	r := Run{Kind: KindKernel, Workload: "tatas-counter", Protocol: "M", Cores: 16, EqChecks: -1}
	dup := r
	dup.Label = "DS/paper" // cosmetic: same key
	plan := Plan{ID: "dup", Runs: []Run{r, dup}}
	fake := newFakeExec()
	_, sum, err := (&Engine{Executor: fake.exec}).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if fake.executions() != 1 {
		t.Errorf("duplicate grid point executed %d times, want 1", fake.executions())
	}
	if sum.Executed != 1 || sum.Deduped != 1 || sum.Total != 2 {
		t.Errorf("summary %+v: want 1 executed, 1 deduped of 2", sum)
	}
	if !strings.Contains(sum.String(), "2/2 complete") || !strings.Contains(sum.String(), "1 deduplicated") {
		t.Errorf("summary string does not account for the duplicate: %s", sum)
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	plan := fakePlan(5)
	bad := plan.Runs[2].Key()
	eng := &Engine{
		Workers: 2,
		Retries: 1,
		Executor: func(r Run) (*stats.RunStats, json.RawMessage, error) {
			if r.Key() == bad {
				panic("injected kernel bug")
			}
			return &stats.RunStats{ExecTime: 1}, nil, nil
		},
	}
	records, sum, err := eng.Execute(plan)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if sum.Failed != 1 || sum.Executed != 5 {
		t.Fatalf("summary %+v: want 5 executed, 1 failed", sum)
	}
	rec := records[bad]
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "injected kernel bug") {
		t.Errorf("panicking run not recorded as failed: %+v", rec)
	}
	if rec.Attempts != 2 {
		t.Errorf("panicking run attempted %d times, want Retries+1 = 2", rec.Attempts)
	}
	for _, r := range plan.Runs {
		if r.Key() == bad {
			continue
		}
		if got := records[r.Key()]; got == nil || got.Status != StatusOK {
			t.Errorf("healthy run %s disturbed by the panicking one: %+v", r, got)
		}
	}
}

// TestEngineThreadPanicFailsOneRun: a panic on a simulated thread, not
// on the run's own goroutine, fails only its grid point.
func TestEngineThreadPanicFailsOneRun(t *testing.T) {
	plan := fakePlan(3)
	bad := plan.Runs[1].Key()
	eng := &Engine{
		Workers: 1,
		Executor: func(r Run) (*stats.RunStats, json.RawMessage, error) {
			if r.Key() != bad {
				return &stats.RunStats{ExecTime: 1}, nil, nil
			}
			space := alloc.New()
			w := space.AllocPadded(space.Region("data"))
			m := machine.New(machine.Params16(), machine.MESI, space)
			rs, err := m.Run("panic", func(th *cpu.Thread) {
				th.FetchAdd(w, 1)
				if th.ID == 3 {
					panic("injected thread bug")
				}
				th.Compute(100)
			})
			return rs, nil, err
		},
	}
	records, sum, err := eng.Execute(plan)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if sum.Executed != 3 || sum.Failed != 1 {
		t.Fatalf("summary %+v: want 3 executed, 1 failed", sum)
	}
	rec := records[bad]
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "injected thread bug") || !strings.Contains(rec.Error, "core 3") {
		t.Errorf("thread panic not recorded as a failed run: %+v", rec)
	}
	for _, r := range plan.Runs {
		if r.Key() != bad && records[r.Key()].Status != StatusOK {
			t.Errorf("run %s after the panicking one did not complete: %+v", r, records[r.Key()])
		}
	}
}

func TestEngineRetryRecovers(t *testing.T) {
	plan := fakePlan(1)
	calls := 0
	eng := &Engine{
		Retries: 2,
		Executor: func(r Run) (*stats.RunStats, json.RawMessage, error) {
			calls++
			if calls < 3 {
				return nil, nil, fmt.Errorf("transient %d", calls)
			}
			return &stats.RunStats{ExecTime: 7}, nil, nil
		},
	}
	records, _, err := eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := records[plan.Runs[0].Key()]
	if rec.Status != StatusOK || rec.Attempts != 3 || rec.Error != "" {
		t.Errorf("retry did not recover: %+v", rec)
	}
}

func TestEngineTimeout(t *testing.T) {
	plan := fakePlan(1)
	eng := &Engine{
		Timeout: 20 * time.Millisecond,
		Executor: func(r Run) (*stats.RunStats, json.RawMessage, error) {
			time.Sleep(5 * time.Second)
			return &stats.RunStats{}, nil, nil
		},
	}
	records, _, err := eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := records[plan.Runs[0].Key()]
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "timeout") {
		t.Errorf("timed-out run not failed: %+v", rec)
	}
}

func TestEngineRetryFailed(t *testing.T) {
	plan := fakePlan(2)
	failKey := plan.Runs[0].Key()
	prior := map[string]*Record{
		failKey: {Key: failKey, Run: plan.Runs[0], Status: StatusFailed, Attempts: 1, Error: "old failure"},
	}
	fake := newFakeExec()

	// Default: journaled failures are skipped.
	eng := &Engine{Prior: prior, Executor: fake.exec}
	records, sum, err := eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if records[failKey].Status != StatusFailed || sum.Executed != 1 {
		t.Errorf("default run re-executed the journaled failure: %+v", sum)
	}

	// RetryFailed re-runs them.
	eng = &Engine{Prior: prior, RetryFailed: true, Executor: fake.exec}
	records, sum, err = eng.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if records[failKey].Status != StatusOK || sum.Executed != 2 {
		t.Errorf("RetryFailed did not re-execute: %+v, %+v", records[failKey], sum)
	}
}

func TestEngineStopChannel(t *testing.T) {
	plan := fakePlan(50)
	stop := make(chan struct{})
	started := make(chan struct{}, 50)
	eng := &Engine{
		Workers: 1,
		Stop:    stop,
		Executor: func(r Run) (*stats.RunStats, json.RawMessage, error) {
			started <- struct{}{}
			time.Sleep(time.Millisecond)
			return &stats.RunStats{}, nil, nil
		},
	}
	go func() {
		<-started // let one run begin, then interrupt
		close(stop)
	}()
	_, sum, err := eng.Execute(plan)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if sum.Executed == 0 || sum.Executed == len(plan.Runs) {
		t.Errorf("executed %d of %d: want a clean partial run", sum.Executed, len(plan.Runs))
	}
}

// TestEngineStopCancelsRetries: a stop request that arrives while a run
// is failing ends its retries. The run keeps one attempt and its failed
// record, which a later session resumes with RetryFailed.
func TestEngineStopCancelsRetries(t *testing.T) {
	plan := fakePlan(1)
	stop := make(chan struct{})
	calls := 0
	eng := &Engine{
		Retries: 5,
		Stop:    stop,
		Executor: func(r Run) (*stats.RunStats, json.RawMessage, error) {
			calls++
			if calls == 1 {
				close(stop)
			}
			return nil, nil, errors.New("transient fault")
		},
	}
	records, sum, err := eng.Execute(plan)
	if err != nil {
		t.Fatalf("Execute: %v (the one dispatched run finished)", err)
	}
	rec := records[plan.Runs[0].Key()]
	if calls != 1 || rec == nil || rec.Status != StatusFailed || rec.Attempts != 1 {
		t.Fatalf("stop did not cancel the retries: %d calls, record %+v", calls, rec)
	}
	if sum.Executed != 1 || sum.Failed != 1 {
		t.Errorf("summary %+v: want 1 executed, 1 failed", sum)
	}
}

func TestEngineProgressReporting(t *testing.T) {
	plan := fakePlan(4)
	fake := newFakeExec()
	var buf bytes.Buffer
	eng := &Engine{Progress: &buf, ProgressEvery: time.Nanosecond, Executor: fake.exec}
	if _, _, err := eng.Execute(plan); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"runs/s", "ETA", "4/4 complete"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}
