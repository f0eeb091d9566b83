package serve

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	alae "repro"
)

// The scheduled-job runner: background maintenance that a serving
// daemon needs but that must never be able to take the daemon down.
// Each job runs on its own ticker goroutine; a run that returns an
// error is counted and logged (the next tick retries), and a run that
// PANICS is recovered to an error — a bad store file or a bug in a
// job degrades that job, not the process. Jobs stop with the drain.

// Job is one scheduled maintenance task.
type Job interface {
	// Name labels the job in /stats and logs.
	Name() string
	// Interval is the tick period; runs are skipped, not stacked, when
	// a run overlaps its next tick.
	Interval() time.Duration
	// Run does one unit of work under ctx; ctx dies when the server
	// drains, so long runs should honour it.
	Run(ctx context.Context) error
}

// JobStatus is one job's counters, reported by /stats.
type JobStatus struct {
	Name       string  `json:"name"`
	Runs       int64   `json:"runs"`
	Failures   int64   `json:"failures"`
	LastError  string  `json:"last_error,omitempty"`
	LastMS     float64 `json:"last_ms"`
	IntervalMS float64 `json:"interval_ms"`
}

type jobState struct {
	job      Job
	runs     atomic.Int64
	failures atomic.Int64
	lastMS   atomic.Int64 // microseconds, reported as ms

	mu      sync.Mutex
	lastErr string
}

// AddJob registers a job. Must be called before StartJobs.
func (s *Server) AddJob(j Job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs = append(s.jobs, &jobState{job: j})
}

// StartJobs launches one ticker goroutine per registered job. The
// goroutines stop when StopJobs runs (Drain calls it). Idempotent.
func (s *Server) StartJobs() {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.jobsCtx != nil {
		return
	}
	s.jobsCtx, s.jobsStop = context.WithCancel(context.Background())
	for _, js := range s.jobs {
		go s.runJob(s.jobsCtx, js)
	}
}

// StopJobs cancels every job goroutine's context. Idempotent.
func (s *Server) StopJobs() {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.jobsStop != nil {
		s.jobsStop()
	}
}

// RunJobOnce drives one registered job synchronously (tests and the
// -probe-now startup check): the same panic isolation as the ticker
// path, returning the run's error.
func (s *Server) RunJobOnce(ctx context.Context, name string) error {
	s.jobsMu.Lock()
	var target *jobState
	for _, js := range s.jobs {
		if js.job.Name() == name {
			target = js
			break
		}
	}
	s.jobsMu.Unlock()
	if target == nil {
		return fmt.Errorf("serve: no job named %q", name)
	}
	return s.runOnce(ctx, target)
}

// JobStatuses snapshots every job's counters for /stats.
func (s *Server) JobStatuses() []JobStatus {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	out := make([]JobStatus, len(s.jobs))
	for i, js := range s.jobs {
		js.mu.Lock()
		lastErr := js.lastErr
		js.mu.Unlock()
		out[i] = JobStatus{
			Name:       js.job.Name(),
			Runs:       js.runs.Load(),
			Failures:   js.failures.Load(),
			LastError:  lastErr,
			LastMS:     float64(js.lastMS.Load()) / 1000,
			IntervalMS: float64(js.job.Interval().Milliseconds()),
		}
	}
	return out
}

func (s *Server) runJob(ctx context.Context, js *jobState) {
	t := time.NewTicker(js.job.Interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.runOnce(ctx, js); err != nil {
				s.logf("serve: job %s: %v", js.job.Name(), err)
			}
		}
	}
}

// runOnce is one isolated job run: panics become errors, and every
// outcome lands in the job's counters.
func (s *Server) runOnce(ctx context.Context, js *jobState) (err error) {
	begin := time.Now()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
		js.runs.Add(1)
		js.lastMS.Store(time.Since(begin).Microseconds())
		if err != nil {
			js.failures.Add(1)
			js.mu.Lock()
			js.lastErr = err.Error()
			js.mu.Unlock()
		} else {
			js.mu.Lock()
			js.lastErr = ""
			js.mu.Unlock()
		}
	}()
	return js.job.Run(ctx)
}

// ---------------------------------------------------------------------
// The standard jobs a serving daemon runs.

// ReloadJob re-reads the store from disk and swaps it in atomically.
// This is how a daemon picks up a rebuilt database without restarting:
// alae's SaveFile publishes by atomic rename, so the file here is
// always a complete store — and if it is nonetheless corrupt (torn by
// a non-atomic copy, truncated by a full disk), the load fails, the
// failure is counted, and the daemon KEEPS SERVING THE OLD STORE.
//
// When Path is a generation directory, the job first reads only the
// MANIFEST's mutation stamp (alae.StoreDirStamp): the manifest rename
// is the commit point of every mutation, so a stamp equal to the
// serving store's means nothing changed and the expensive reload is
// skipped. Single-file stores carry no separately readable stamp and
// reload unconditionally.
type ReloadJob struct {
	Server *Server
	Path   string
	Opts   alae.StoreOptions
	Every  time.Duration
}

func (j *ReloadJob) Name() string            { return "reload" }
func (j *ReloadJob) Interval() time.Duration { return j.Every }
func (j *ReloadJob) Run(ctx context.Context) error {
	if fi, err := os.Stat(j.Path); err == nil && fi.IsDir() {
		stamp, err := alae.StoreDirStamp(j.Path)
		if err != nil {
			return fmt.Errorf("keeping the previous store: %w", err)
		}
		if cur := j.Server.Store(); cur != nil && cur.Stamp() == stamp {
			return nil
		}
	}
	st, err := alae.LoadStoreFile(j.Path, j.Opts)
	if err != nil {
		return fmt.Errorf("keeping the previous store: %w", err)
	}
	j.Server.store.Store(st)
	return nil
}

// CompactJob runs the generational store's compaction on a schedule:
// appended generations fold together and tombstoned members' bytes are
// purged (see alae.Store.Compact). A pass with nothing to merge is a
// cheap no-op, so a short interval is safe; on a directory-backed
// store each pass persists crash-safely before it is visible.
type CompactJob struct {
	Server *Server
	Every  time.Duration
}

func (j *CompactJob) Name() string            { return "compact" }
func (j *CompactJob) Interval() time.Duration { return j.Every }
func (j *CompactJob) Run(ctx context.Context) error {
	st := j.Server.Store()
	stats, err := st.Compact()
	if err != nil {
		return fmt.Errorf("compaction failed (store unchanged): %w", err)
	}
	if stats.Before != stats.After || stats.PurgedMembers > 0 {
		j.Server.logf("serve: compact merged %d generations into %d, purged %d members (%d bytes)",
			stats.Before, stats.After, stats.PurgedMembers, stats.PurgedBytes)
	}
	return nil
}

// ProbeJob is the bench self-probe: it searches the serving path with
// a query sampled from the store's own data (a member prefix, which
// must hit) and fails if the answer comes back empty or slow. A
// failing probe in /stats is the early signal that serving — not the
// data — has degraded.
type ProbeJob struct {
	Server   *Server
	QueryLen int           // sampled prefix length; 0 means 64
	Timeout  time.Duration // per-probe deadline; 0 means 30s
	Every    time.Duration
}

func (j *ProbeJob) Name() string            { return "probe" }
func (j *ProbeJob) Interval() time.Duration { return j.Every }
func (j *ProbeJob) Run(ctx context.Context) error {
	n := j.QueryLen
	if n <= 0 {
		n = 64
	}
	timeout := j.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	st := j.Server.Store()
	query := st.SampleQuery(n)
	if len(query) == 0 {
		return fmt.Errorf("store has no bytes to sample a probe query from")
	}
	begin := time.Now()
	res, err := st.SearchContext(ctx, query, j.Server.cfg.Options)
	if err != nil {
		return fmt.Errorf("probe search failed after %s: %w", time.Since(begin).Round(time.Millisecond), err)
	}
	if len(res.Hits) == 0 {
		// A member's own prefix always aligns to itself above any sane
		// threshold; an empty answer means the pipeline is broken.
		return fmt.Errorf("probe query (a member prefix of length %d) returned no hits at threshold %d", len(query), res.Threshold)
	}
	return nil
}
