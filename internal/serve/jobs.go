package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/space"
)

// ExploreRequest is the wire form of one exploration job: which
// (study, application) pair to model, under what budget, and the name
// the finished model registers under. It is deliberately close to
// cmd/dsexplore's flags — one engine, two front ends.
type ExploreRequest struct {
	// Name is the model-registry name the finished bundle registers
	// under; it is reserved for the job's lifetime.
	Name string `json:"name"`
	// Study and App select the oracle (resolved by the server's
	// Backend); TraceLen is instructions per simulation (0 = backend
	// default).
	Study    string `json:"study"`
	App      string `json:"app"`
	TraceLen int    `json:"traceLen,omitempty"`

	// Budget is the maximum simulations (required); Batch is
	// simulations per round (0 = 50, the paper's batch). Target stops
	// the loop at an estimated mean error (%); 0 runs the full budget.
	Budget int     `json:"budget"`
	Batch  int     `json:"batch,omitempty"`
	Target float64 `json:"target,omitempty"`
	// Acquire selects an acquisition function, in the
	// core.ParseAcquireSpec grammar ("variance" for the Chapter 7
	// active-learning rule, "hvi:max=out0:min=out1",
	// "variance:out0>=1.2", ...). The first round is always random.
	Acquire string `json:"acquire,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Workers bounds the per-job oracle fan-out (0 = all cores);
	// Retries is per-point retries before quarantine (0 = default).
	Workers int `json:"workers,omitempty"`
	Retries int `json:"retries,omitempty"`
}

// Backend resolves an exploration request into the design space and
// oracle it runs against. cmd/serve wires the cycle-level simulator in;
// tests wire synthetic oracles. The returned meta records provenance
// for the registered bundle.
type Backend func(req ExploreRequest) (*space.Space, core.Oracle, bundle.Meta, error)

// JobStatus is the lifecycle of an exploration job.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Job is one asynchronous exploration tracked by the store. Its
// Req.Name is reserved in the registry from submission until the job
// fails or is cancelled.
type Job struct {
	ID  string
	Req ExploreRequest

	mu          sync.Mutex
	status      JobStatus
	created     time.Time
	started     time.Time
	finished    time.Time
	steps       []core.Step
	quarantined int
	// liveSp/liveEns/acquire feed GET /v1/jobs/{id}/frontier: the
	// exploration's design space, its latest trained ensemble (updated
	// after every completed round) and its acquisition config.
	liveSp    *space.Space
	liveEns   *core.Ensemble
	acquire   *core.AcquireConfig
	errMsg    string
	cancel    context.CancelFunc
	cancelled bool
}

// JobInfo is a consistent snapshot of a job, and its JSON view.
type JobInfo struct {
	ID          string         `json:"id"`
	Req         ExploreRequest `json:"request"`
	Status      JobStatus      `json:"status"`
	Created     time.Time      `json:"created"`
	Started     *time.Time     `json:"started,omitempty"`
	Finished    *time.Time     `json:"finished,omitempty"`
	Samples     int            `json:"samples"`
	Rounds      []core.Step    `json:"rounds,omitempty"`
	Quarantined int            `json:"quarantined,omitempty"`
	Error       string         `json:"error,omitempty"`
	// Model is the registry name queryable once the job is done.
	Model string `json:"model,omitempty"`
}

// Info snapshots the job under its lock.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:          j.ID,
		Req:         j.Req,
		Status:      j.status,
		Created:     j.created,
		Rounds:      append([]core.Step(nil), j.steps...),
		Quarantined: j.quarantined,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if n := len(j.steps); n > 0 {
		info.Samples = j.steps[n-1].Samples
	}
	if j.status == JobDone {
		info.Model = j.Req.Name
	}
	return info
}

// JobStore runs exploration jobs over a bounded worker pool and
// registers the finished models. Submissions beyond the queue's
// capacity are rejected rather than buffered without bound; cancelling
// a queued job frees its slot immediately.
type JobStore struct {
	reg     *Registry
	backend Backend
	copts   CoalesceOpts

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	notEmpty *sync.Cond // signaled when pending gains a job or the store closes
	pending  []*Job     // FIFO of queued jobs awaiting a worker
	queueCap int
	jobs     map[string]*Job
	order    []string
	names    map[string]bool // model names reserved by live or done jobs
	nextID   int
	closed   bool
}

// NewJobStore builds a store running at most concurrency jobs at once
// (minimum 1), queueing at most queueCap more (minimum 1). Finished
// models register in reg with copts.
func NewJobStore(reg *Registry, backend Backend, concurrency, queueCap int, copts CoalesceOpts) *JobStore {
	if concurrency < 1 {
		concurrency = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &JobStore{
		reg:      reg,
		backend:  backend,
		copts:    copts,
		baseCtx:  ctx,
		stop:     stop,
		queueCap: queueCap,
		jobs:     make(map[string]*Job),
		names:    make(map[string]bool),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	for i := 0; i < concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates, enqueues and returns a new exploration job. The
// model name is reserved immediately, so two concurrent submissions
// cannot race for one registry slot.
func (s *JobStore) Submit(req ExploreRequest) (JobInfo, error) {
	if req.Name == "" {
		return JobInfo{}, fmt.Errorf("serve: job needs a model name to register under")
	}
	if req.Budget <= 0 {
		return JobInfo{}, fmt.Errorf("serve: job needs a positive simulation budget")
	}
	if req.Batch < 0 || req.Batch > req.Budget {
		return JobInfo{}, fmt.Errorf("serve: batch %d outside (0, budget=%d]", req.Batch, req.Budget)
	}
	if req.Acquire != "" {
		// Reject malformed specs at submission, not rounds later when
		// the first acquisition-driven batch would be drawn.
		if _, err := core.ParseAcquireSpec(req.Acquire); err != nil {
			return JobInfo{}, fmt.Errorf("serve: %w", err)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: job store is shut down")
	}
	if s.names[req.Name] {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: model name %q is taken by another job", req.Name)
	}
	if _, err := s.reg.Get(req.Name); err == nil {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: model %q already registered", req.Name)
	}
	if len(s.pending) >= s.queueCap {
		s.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: job queue is full (%d pending)", s.queueCap)
	}
	s.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%d", s.nextID),
		Req:     req,
		status:  JobQueued,
		created: time.Now(),
	}
	s.pending = append(s.pending, job)
	s.names[req.Name] = true
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.notEmpty.Signal()
	s.mu.Unlock()
	return job.Info(), nil
}

// Get returns a snapshot of one job.
func (s *JobStore) Get(id string) (JobInfo, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("serve: unknown job %q", id)
	}
	return job.Info(), nil
}

// List snapshots every job in submission order.
func (s *JobStore) List() []JobInfo {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.Info()
	}
	return out
}

// Cancel stops a queued or running job. Finished jobs cannot be
// cancelled.
func (s *JobStore) Cancel(id string) (JobInfo, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, fmt.Errorf("serve: unknown job %q", id)
	}
	job.mu.Lock()
	switch job.status {
	case JobQueued:
		// Drop it from the pending queue so its slot frees immediately;
		// if a worker dequeued it concurrently, the cancelled flag makes
		// run() skip it.
		job.cancelled = true
		job.status = JobCancelled
		job.finished = time.Now()
		s.unqueue(job)
		s.releaseName(job.Req.Name)
	case JobRunning:
		job.cancelled = true
		job.cancel() // run() settles status when Run returns
	case JobDone, JobFailed, JobCancelled:
		job.mu.Unlock()
		return JobInfo{}, fmt.Errorf("serve: job %q already %s", id, job.status)
	}
	job.mu.Unlock()
	return job.Info(), nil
}

// Close stops accepting jobs, cancels queued and running ones and
// waits for the workers to drain.
func (s *JobStore) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	dropped := s.pending
	s.pending = nil
	s.notEmpty.Broadcast()
	s.mu.Unlock()
	for _, job := range dropped {
		job.mu.Lock()
		job.cancelled = true
		job.status = JobCancelled
		job.finished = time.Now()
		job.mu.Unlock()
		s.releaseName(job.Req.Name)
	}
	s.stop()
	s.wg.Wait()
}

func (s *JobStore) releaseName(name string) {
	s.mu.Lock()
	delete(s.names, name)
	s.mu.Unlock()
}

// unqueue removes a job from the pending FIFO if it is still there.
// Callers hold job.mu; everywhere the two locks nest, the order is
// job.mu → s.mu (run's settle path does the same), so this cannot
// deadlock against Submit/List/Get, which never take job.mu under s.mu.
func (s *JobStore) unqueue(job *Job) {
	s.mu.Lock()
	for i, p := range s.pending {
		if p == job {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

func (s *JobStore) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.notEmpty.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		job := s.pending[0]
		s.pending = s.pending[1:]
		s.mu.Unlock()
		s.run(job)
	}
}

// run executes one job end to end and settles its final status.
func (s *JobStore) run(job *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	job.mu.Lock()
	if job.cancelled { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.status = JobRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()

	err := s.runExplore(ctx, job)
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	if err != nil {
		if job.cancelled || ctx.Err() != nil {
			job.status = JobCancelled
		} else {
			job.status = JobFailed
		}
		job.errMsg = err.Error()
		s.releaseName(job.Req.Name)
		return
	}
	job.status = JobDone
}

// runExplore is one job's work: backend resolution, the exploration
// driver, and registration of the finished bundle.
func (s *JobStore) runExplore(ctx context.Context, job *Job) error {
	req := job.Req
	ens, d, meta, err := s.explore(ctx, job, req)
	if d != nil {
		job.mu.Lock()
		job.quarantined = len(d.Quarantined())
		job.mu.Unlock()
	}
	if err != nil {
		return err
	}
	b, err := bundle.New(d.Space(), ens, meta)
	if err == nil {
		_, err = s.reg.Add(req.Name, b, s.copts)
	}
	return err
}

// explore builds and runs the driver for one exploration job.
func (s *JobStore) explore(ctx context.Context, job *Job, req ExploreRequest) (*core.Ensemble, *explore.Driver, bundle.Meta, error) {
	sp, oracle, meta, err := s.backend(req)
	if err != nil {
		return nil, nil, meta, err
	}
	batch := req.Batch
	if batch == 0 {
		batch = 50
		if batch > req.Budget {
			batch = req.Budget
		}
	}
	cfg, err := driverConfig(req, batch)
	if err != nil {
		return nil, nil, meta, err
	}
	// The OnStep observer snapshots the freshly trained ensemble into
	// the job for GET /v1/jobs/{id}/frontier. It closes over d, which is
	// assigned below before Run starts; OnStep runs on the goroutine
	// executing Run, so the read is ordered after the assignment.
	var d *explore.Driver
	cfg.OnStep = func(step core.Step) {
		job.mu.Lock()
		job.steps = append(job.steps, step)
		job.liveEns = d.Ensemble()
		job.mu.Unlock()
	}
	cfg.Meta = meta
	d, err = explore.New(sp, oracle, cfg)
	if err != nil {
		return nil, nil, meta, err
	}
	job.mu.Lock()
	job.liveSp = sp
	job.acquire = cfg.Acquire
	job.mu.Unlock()
	ens, err := d.Run(ctx)
	if err != nil {
		return nil, d, meta, err
	}
	meta.Samples = len(d.Samples())
	meta.Model = cfg.Model
	return ens, d, meta, nil
}

// driverConfig maps an exploration request onto the driver's
// configuration.
func driverConfig(req ExploreRequest, batch int) (explore.Config, error) {
	cfg := explore.Config{
		ExploreConfig: core.ExploreConfig{
			Model:         core.DefaultModelConfig(),
			BatchSize:     batch,
			MaxSamples:    req.Budget,
			TargetMeanErr: req.Target,
			Seed:          req.Seed,
		},
		Pipeline: explore.Pipeline{
			Workers: req.Workers,
			Retries: req.Retries,
		},
	}
	if req.Acquire != "" {
		acq, err := core.ParseAcquireSpec(req.Acquire)
		if err != nil {
			return explore.Config{}, fmt.Errorf("serve: %w", err)
		}
		cfg.Acquire = acq
	}
	cfg.Model.Workers = req.Workers
	return cfg, nil
}
