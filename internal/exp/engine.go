package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"denovosync/internal/stats"
)

// ErrStopped reports that Execute returned before the grid completed —
// a requested stop (Stop channel, StopAfter) with every in-flight run
// finished and journaled. Re-running the same plan against the same
// journal resumes exactly where it left off.
var ErrStopped = errors.New("exp: stopped before the grid completed (journal preserved; run again to resume)")

// Engine executes a plan's pending runs on a bounded worker pool with
// per-run fault isolation. The zero value is usable: GOMAXPROCS
// workers, no timeout, no retries, no journal.
type Engine struct {
	// Workers bounds concurrent runs; <= 0 means GOMAXPROCS.
	Workers int

	// Timeout bounds one attempt's wall-clock time; 0 = none. A timed-out
	// simulation cannot be preempted, so its goroutine is abandoned (it
	// burns a core until process exit) and the attempt is recorded failed.
	Timeout time.Duration

	// Retries is the number of *extra* attempts after a failed one. A
	// retry starts at once.
	Retries int

	// RetryFailed re-executes journaled failures instead of skipping them.
	RetryFailed bool

	// StopAfter stops dispatching new runs once this many have completed
	// in this session (0 = no limit). Deterministic stand-in for ^C in
	// tests and CI smoke checks.
	StopAfter int

	// Stop, when closed, stops dispatching new runs and cancels the
	// remaining retries; in-flight attempts finish and are journaled.
	Stop <-chan struct{}

	// Journal, when set, durably records every completed run; Prior is
	// the already-journaled record set (from OpenJournal) to resume from.
	Journal *Journal
	Prior   map[string]*Record

	// Progress, when set, receives live progress lines (completed /
	// failed / remaining, runs/sec, ETA) at most every ProgressEvery
	// (default 2s) plus a final summary.
	Progress      io.Writer
	ProgressEvery time.Duration

	// Executor overrides how a run executes (nil = Execute). The aux
	// payload, if any, is journaled on the record (Record.Aux) so a
	// resumed session recovers executor-specific results — the fuzz
	// campaign's coverage verdicts — without re-running. Required for
	// KindScenario runs, which Execute cannot build on its own.
	Executor func(Run) (*stats.RunStats, json.RawMessage, error)
}

// Summary describes one Execute call's outcome.
type Summary struct {
	Total    int           // grid points in the plan
	Resumed  int           // skipped: already journaled
	Deduped  int           // skipped: identical to an earlier grid point
	Executed int           // run in this session
	Failed   int           // failed records (this session + resumed)
	Elapsed  time.Duration // wall clock of this session
}

// RunsPerSec is the session throughput.
func (s Summary) RunsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Executed) / s.Elapsed.Seconds()
}

func (s Summary) String() string {
	dedup := ""
	if s.Deduped > 0 {
		dedup = fmt.Sprintf(", %d deduplicated", s.Deduped)
	}
	return fmt.Sprintf("%d/%d complete (%d executed, %d resumed, %d failed%s) in %.1fs (%.2f runs/s)",
		s.Resumed+s.Deduped+s.Executed, s.Total, s.Executed, s.Resumed, s.Failed, dedup,
		s.Elapsed.Seconds(), s.RunsPerSec())
}

// Execute runs every plan run that is not already journaled, returning
// the merged record set (prior + this session) keyed by run key. The
// record set is complete iff err is nil; ErrStopped means a clean
// partial run. Failed runs do not make Execute fail — inspect the
// records (or use Figure / the Summary) to surface them.
func (e *Engine) Execute(plan Plan) (map[string]*Record, Summary, error) {
	start := time.Now()
	sum := Summary{Total: len(plan.Runs)}

	records := make(map[string]*Record, len(plan.Runs))
	var pending []Run
	seen := make(map[string]bool, len(plan.Runs))
	for _, r := range plan.Runs {
		k := r.Key()
		if seen[k] {
			// Identical configuration under a different label (e.g. an
			// ablation variant that coincides with the paper default):
			// execute once, render every row from the shared record.
			sum.Deduped++
			continue
		}
		seen[k] = true
		if prev, ok := e.Prior[k]; ok && (prev.Status == StatusOK || !e.RetryFailed) {
			records[k] = prev
			sum.Resumed++
			if prev.Status == StatusFailed {
				sum.Failed++
			}
			continue
		}
		pending = append(pending, r)
	}

	if len(pending) == 0 {
		sum.Elapsed = time.Since(start)
		e.progressf("exp: %s: %s\n", plan.ID, sum)
		return records, sum, nil
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	// quit stops the feeder; closed on StopAfter, Stop, or journal error.
	quit := make(chan struct{})
	var quitOnce sync.Once
	stopFeed := func() { quitOnce.Do(func() { close(quit) }) }
	if e.Stop != nil {
		stopC := e.Stop
		go func() {
			select {
			case <-stopC:
				stopFeed()
			case <-quit:
			}
		}()
	}
	defer stopFeed()

	jobs := make(chan Run)
	go func() {
		defer close(jobs)
		for _, r := range pending {
			select {
			case jobs <- r:
			case <-quit:
				return
			}
		}
	}()

	out := make(chan *Record)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				out <- e.runOne(r, plan.ID)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	every := e.ProgressEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	var lastProgress time.Time
	var journalErr error
	for rec := range out {
		records[rec.Key] = rec
		sum.Executed++
		if rec.Status == StatusFailed {
			sum.Failed++
			e.progressf("exp: FAILED %s (attempt %d): %s\n", rec.Run, rec.Attempts, rec.Error)
		}
		if e.Journal != nil && journalErr == nil {
			if err := e.Journal.Append(rec); err != nil {
				journalErr = err
				stopFeed()
			}
		}
		if e.StopAfter > 0 && sum.Executed >= e.StopAfter {
			stopFeed()
		}
		if e.Progress != nil && time.Since(lastProgress) >= every {
			lastProgress = time.Now()
			done := sum.Resumed + sum.Deduped + sum.Executed
			remaining := sum.Total - done
			rate := float64(sum.Executed) / time.Since(start).Seconds()
			eta := "?"
			if rate > 0 {
				eta = (time.Duration(float64(remaining) / rate * float64(time.Second))).Round(time.Second).String()
			}
			e.progressf("exp: %s: %d/%d done (%d failed), %d remaining, %.2f runs/s, ETA %s\n",
				plan.ID, done, sum.Total, sum.Failed, remaining, rate, eta)
		}
	}

	sum.Elapsed = time.Since(start)
	e.progressf("exp: %s: %s\n", plan.ID, sum)
	if journalErr != nil {
		return records, sum, journalErr
	}
	if sum.Executed < len(pending) {
		return records, sum, ErrStopped
	}
	return records, sum, nil
}

func (e *Engine) progressf(format string, args ...interface{}) {
	if e.Progress != nil {
		fmt.Fprintf(e.Progress, format, args...)
	}
}

// runOne executes one grid point with bounded retry, converting panics
// and timeouts into a failed record rather than a dead process.
func (e *Engine) runOne(r Run, fig string) *Record {
	exec := e.Executor
	if exec == nil {
		exec = func(r Run) (*stats.RunStats, json.RawMessage, error) {
			rs, err := Execute(r)
			return rs, nil, err
		}
	}
	rec := &Record{Key: r.Key(), Fig: fig, Run: r}
	for attempt := 1; ; attempt++ {
		rec.Attempts = attempt
		rs, aux, err := e.isolated(exec, r)
		if err == nil {
			rec.Status, rec.Error, rec.Stats, rec.Aux = StatusOK, "", sanitizeStats(rs), aux
			return rec
		}
		rec.Status, rec.Error, rec.Stats, rec.Aux = StatusFailed, err.Error(), nil, nil
		if attempt > e.Retries {
			return rec
		}
		// A stop request cancels the remaining retries: the failed record
		// stands and the grid resumes it (with -retry-failed) next session.
		select {
		case <-e.Stop:
			return rec
		default:
		}
	}
}

// isolated runs one attempt in its own goroutine so a panicking kernel
// configuration fails one grid point, not the whole grid, and so an
// attempt can be abandoned on timeout.
func (e *Engine) isolated(exec func(Run) (*stats.RunStats, json.RawMessage, error), r Run) (*stats.RunStats, json.RawMessage, error) {
	type outcome struct {
		rs  *stats.RunStats
		aux json.RawMessage
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned attempt must not block
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{nil, nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		rs, aux, err := exec(r)
		ch <- outcome{rs, aux, err}
	}()
	if e.Timeout <= 0 {
		o := <-ch
		return o.rs, o.aux, o.err
	}
	t := time.NewTimer(e.Timeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.rs, o.aux, o.err
	case <-t.C:
		return nil, nil, fmt.Errorf("run exceeded the %v timeout (attempt abandoned)", e.Timeout)
	}
}
