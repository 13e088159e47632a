package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"riscvmem/internal/run"
)

// JobState is one point of the async job lifecycle:
//
//	queued ──► running ──► done
//	   │          ├──────► failed     (execution error or deadline)
//	   └──────────┴──────► cancelled  (DELETE, or drain abandonment)
//
// A queued job is waiting for an admission slot; it obeys the same bounded
// queue as synchronous requests.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCancelled
}

// JobRequest submits work asynchronously: exactly one of Batch or Sweep.
// The embedded request is validated synchronously at submission — a
// malformed job fails the submit call, never a later poll.
type JobRequest struct {
	Batch *BatchRequest `json:"batch,omitempty"`
	Sweep *SweepRequest `json:"sweep,omitempty"`
}

// JobStatus is the externally visible snapshot of one async job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Kind is "batch" or "sweep".
	Kind string `json:"kind"`
	// Done/Total count completed jobs of the request's cross-product.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Rows accumulates per-job outcomes in completion order as the
	// Runner's serialized progress hook reports them — the streaming-read
	// surface while the job runs. (Sweep rows here are raw results; the
	// base-relative deltas require the full grid and arrive in Response.)
	Rows []ResultRow `json:"rows,omitempty"`
	// NextAfter is the rows high-water mark: the count accumulated when
	// this snapshot was taken. Pass it as GET /v1/jobs/{id}?after=N (or
	// JobAfter) to receive only rows that arrived since — the incremental
	// polling surface for long requests.
	NextAfter int `json:"next_after"`
	// Error is set for failed (and drain-abandoned cancelled) jobs.
	Error string `json:"error,omitempty"`
	// Response is the complete, request-ordered response of a done job
	// (also set for failed/cancelled batch jobs, whose partial responses
	// carry per-row errors).
	Response *Response  `json:"response,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// job is the store's internal record. All fields past the immutable header
// are guarded by the store mutex.
type job struct {
	id   string
	kind string
	opts RequestOptions
	plan *Plan

	state           JobState
	rows            []ResultRow
	done, total     int
	resp            *Response
	errMsg          string
	cancel          context.CancelFunc
	cancelRequested bool
	created         time.Time
	started         time.Time
	finished        time.Time
}

// jobStore owns every async job: creation, state transitions, row
// accumulation, snapshots, and TTL-based garbage collection of finished
// jobs (run lazily on every store operation — no background goroutine to
// leak or drain).
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*job
	ttl  time.Duration
	max  int
}

func newJobStore(ttl time.Duration, max int) *jobStore {
	return &jobStore{jobs: map[string]*job{}, ttl: ttl, max: max}
}

// newJobID returns a 16-hex-digit random job ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: job ID entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// gcLocked drops finished jobs past their TTL. Caller holds mu.
func (st *jobStore) gcLocked(now time.Time) {
	for id, j := range st.jobs {
		if j.state.terminal() && now.Sub(j.finished) > st.ttl {
			delete(st.jobs, id)
		}
	}
}

// create registers a new queued job, evicting the oldest finished job when
// the store is full; it fails when every stored job is still live.
func (st *jobStore) create(j *job) error {
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gcLocked(now)
	if len(st.jobs) >= st.max {
		oldest := ""
		var oldestAt time.Time
		for id, e := range st.jobs {
			if e.state.terminal() && (oldest == "" || e.finished.Before(oldestAt)) {
				oldest, oldestAt = id, e.finished
			}
		}
		if oldest == "" {
			return &OverloadError{RetryAfter: time.Second,
				reason: fmt.Errorf("%w: %d jobs stored, all live", ErrOverloaded, len(st.jobs))}
		}
		delete(st.jobs, oldest)
	}
	j.state = JobQueued
	j.created = now
	st.jobs[j.id] = j
	return nil
}

// snapshotLocked copies the job into its external form. Caller holds mu.
func (st *jobStore) snapshotLocked(j *job, withRows bool) JobStatus {
	s := JobStatus{
		ID: j.id, State: j.state, Kind: j.kind,
		Done: j.done, Total: j.total,
		Error: j.errMsg, Response: j.resp, Created: j.created,
	}
	s.NextAfter = len(j.rows)
	if withRows {
		s.Rows = j.rows // append-only: shared backing array is safe to read
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// SubmitJob validates the request synchronously, registers a queued job and
// starts its executor. The returned snapshot carries the job ID to poll;
// the job then competes for the same bounded admission queue as synchronous
// requests, under its own timeout (queue wait included).
func (s *Service) SubmitJob(ctx context.Context, req JobRequest) (JobStatus, error) {
	if err := s.checkAdmittable(ctx); err != nil {
		return JobStatus{}, err
	}
	j := &job{id: newJobID()}
	switch {
	case req.Batch != nil && req.Sweep == nil:
		p, err := s.planBatch(*req.Batch)
		if err != nil {
			return JobStatus{}, err
		}
		j.kind, j.plan, j.opts = "batch", p, req.Batch.Options
	case req.Sweep != nil && req.Batch == nil:
		p, err := PlanSweep(*req.Sweep, s.opt.MaxJobs)
		if err != nil {
			return JobStatus{}, err
		}
		j.kind, j.plan, j.opts = "sweep", p, req.Sweep.Options
	default:
		return JobStatus{}, invalidf("service: job request must set exactly one of batch or sweep")
	}
	j.total = len(j.plan.Jobs)
	if err := s.jobs.create(j); err != nil {
		return JobStatus{}, err
	}
	go s.executeJob(j)
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	return s.jobs.snapshotLocked(j, true), nil
}

// executeJob runs one async job through the ordinary admission and
// execution paths. The job's context descends from Background — it lives
// past the submitting connection — bounded by the request timeout and the
// job's own cancel.
func (s *Service) executeJob(j *job) {
	ctx, cancelTimeout := s.timeoutCtx(context.Background(), j.opts)
	defer cancelTimeout()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	s.jobs.mu.Lock()
	j.cancel = cancel
	if j.cancelRequested { // DELETE raced submission
		cancel()
	}
	s.jobs.mu.Unlock()

	release, err := s.admit(ctx) // queued: waits like any request
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	defer release()

	s.jobs.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	s.jobs.mu.Unlock()

	resp, _, err := s.execute(ctx, j.plan, func(p run.Progress) {
		row := jobRow(p.Result, p.Err)
		s.jobs.mu.Lock()
		j.rows = append(j.rows, row)
		j.done = p.Done
		s.jobs.mu.Unlock()
	})
	// A batch absorbs context death into per-row errors; surface it as the
	// job's own outcome so a timed-out job reads failed, not done.
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	s.finishJob(j, resp, err)
}

// finishJob moves the job to its terminal state: cancelled when its
// cancellation was requested (or drain abandoned it), failed on any error,
// done otherwise. A partial response survives in every case.
func (s *Service) finishJob(j *job, resp *Response, err error) {
	s.jobs.mu.Lock()
	switch {
	case j.cancelRequested:
		j.state = JobCancelled
	case err != nil:
		j.state = JobFailed
	default:
		j.state = JobDone
	}
	if err != nil {
		j.errMsg = err.Error()
	}
	j.resp = resp
	j.finished = time.Now()
	s.jobs.mu.Unlock()
}

// JobAfter returns the job's current snapshot, rows included, with an
// incremental row cursor: the snapshot elides the first `after` rows — a
// client that remembers the previous snapshot's NextAfter polls down only
// the rows that arrived since, instead of re-downloading a 4096-row batch
// on every poll. after past the current high-water mark yields no rows
// (not an error: the client is simply caught up); 0 returns every row.
func (s *Service) JobAfter(id string, after int) (JobStatus, bool) {
	now := time.Now()
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	s.jobs.gcLocked(now)
	j, ok := s.jobs.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	snap := s.jobs.snapshotLocked(j, true)
	if after > 0 {
		if after >= len(snap.Rows) {
			snap.Rows = nil
		} else {
			snap.Rows = snap.Rows[after:]
		}
	}
	return snap, true
}

// Jobs lists every stored job (rows elided), newest first.
func (s *Service) Jobs() []JobStatus {
	now := time.Now()
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	s.jobs.gcLocked(now)
	out := make([]JobStatus, 0, len(s.jobs.jobs))
	for _, j := range s.jobs.jobs {
		out = append(out, s.jobs.snapshotLocked(j, false))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.After(out[b].Created) })
	return out
}

// CancelJob requests cancellation: a queued job leaves the admission queue,
// a running job's context is cancelled (its workload is abandoned at the
// runner if it ignores cancellation). Already-terminal jobs are unchanged.
// The returned snapshot reflects the state at return — cancellation of a
// running job completes asynchronously.
func (s *Service) CancelJob(id string) (JobStatus, bool) {
	s.jobs.mu.Lock()
	j, ok := s.jobs.jobs[id]
	if !ok {
		s.jobs.mu.Unlock()
		return JobStatus{}, false
	}
	var cancel context.CancelFunc
	if !j.state.terminal() {
		j.cancelRequested = true
		cancel = j.cancel // may be nil if the executor hasn't installed it yet
	}
	snap := s.jobs.snapshotLocked(j, true)
	s.jobs.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return snap, true
}

// activeJobs counts non-terminal jobs; drain waits on it reaching zero.
func (s *Service) activeJobs() (n int) {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	for _, j := range s.jobs.jobs {
		if !j.state.terminal() {
			n++
		}
	}
	return n
}
