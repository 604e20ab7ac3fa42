package cluster

import (
	"fmt"
	"sync"
)

// shardRange is one contiguous, chunk-aligned slice of the flat index
// range.
type shardRange struct {
	id         int
	start, end int
}

// Shard scheduling states.
const (
	shardPending = iota
	shardRunning
	shardDone
)

// shardState tracks one shard through dispatch, failure and requeue.
type shardState struct {
	shardRange
	state    int
	attempts int
	excluded []bool // per node: failed this shard, don't hand it back
	lastErr  error
}

// sched is the work-queue behind the coordinator: dispatch slots pull
// the lowest-id runnable shard for their node, failures requeue the
// shard onto the surviving nodes, and repeated failures retire a node
// or — when a shard exhausts its budget — fail the whole sweep.
type sched struct {
	nodes     []string
	retries   int
	failLimit int
	cancel    func()
	logf      func(format string, args ...any)

	mu      sync.Mutex
	cond    *sync.Cond
	shards  []*shardState
	dead    []bool
	strikes []int
	done    int
	stopped bool
	err     error
}

func newSched(nodes []string, shards []shardRange, retries, failLimit int, cancel func(), logf func(string, ...any)) *sched {
	s := &sched{
		nodes:     nodes,
		retries:   retries,
		failLimit: failLimit,
		cancel:    cancel,
		logf:      logf,
		dead:      make([]bool, len(nodes)),
		strikes:   make([]int, len(nodes)),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, r := range shards {
		s.shards = append(s.shards, &shardState{shardRange: r, excluded: make([]bool, len(nodes))})
	}
	return s
}

// next blocks until a shard is runnable on node, every shard is done,
// the node is retired, or the sweep stops — returning nil in the
// latter three cases (the caller's slot exits).
func (s *sched) next(node int) *shardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped || s.err != nil || s.done == len(s.shards) || s.dead[node] {
			return nil
		}
		for _, sh := range s.shards {
			if sh.state == shardPending && !sh.excluded[node] {
				sh.state = shardRunning
				return sh
			}
		}
		s.cond.Wait()
	}
}

// finish marks a shard delivered.
func (s *sched) finish(sh *shardState) {
	s.mu.Lock()
	sh.state = shardDone
	s.done++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// requeue hands a shard back untouched — used when the run itself is
// cancelled mid-request, which is nobody's failure.
func (s *sched) requeue(sh *shardState) {
	s.mu.Lock()
	sh.state = shardPending
	s.mu.Unlock()
	s.cond.Broadcast()
}

// fail records one shard failure on one node: the shard is excluded
// from that node and requeued, the node takes a strike (retiring it at
// the limit), and a shard out of retry budget fails the whole sweep.
func (s *sched) fail(node int, sh *shardState, err error) {
	s.mu.Lock()
	sh.attempts++
	sh.lastErr = err
	sh.excluded[node] = true
	sh.state = shardPending
	s.logf("cluster: shard [%d,%d) failed on %s (attempt %d/%d): %v",
		sh.start, sh.end, s.nodes[node], sh.attempts, s.retries, err)
	s.strikes[node]++
	if s.strikes[node] >= s.failLimit && !s.dead[node] {
		s.dead[node] = true
		s.logf("cluster: retiring node %s after %d failures", s.nodes[node], s.strikes[node])
	}
	if sh.attempts > s.retries {
		s.failLocked(fmt.Errorf("cluster: shard [%d,%d) failed %d times, giving up: %w",
			sh.start, sh.end, sh.attempts, err))
	} else {
		s.rebalanceLocked()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// rebalanceLocked keeps every pending shard runnable somewhere: if all
// nodes are gone the sweep fails, and a shard excluded from every
// surviving node gets its exclusions cleared so it may retry anywhere
// (its attempt budget still bounds the loop).
func (s *sched) rebalanceLocked() {
	alive := false
	for _, d := range s.dead {
		if !d {
			alive = true
			break
		}
	}
	if !alive {
		lastErr := fmt.Errorf("no shard failures recorded")
		for _, sh := range s.shards {
			if sh.lastErr != nil {
				lastErr = sh.lastErr
			}
		}
		s.failLocked(fmt.Errorf("cluster: every node failed; last error: %w", lastErr))
		return
	}
	for _, sh := range s.shards {
		if sh.state != shardPending {
			continue
		}
		runnable := false
		for n := range s.dead {
			if !s.dead[n] && !sh.excluded[n] {
				runnable = true
				break
			}
		}
		if !runnable {
			for n := range sh.excluded {
				sh.excluded[n] = false
			}
		}
	}
}

// failLocked records the sweep-fatal error once and aborts in-flight
// work.
func (s *sched) failLocked(err error) {
	if s.err == nil {
		s.err = err
		s.stopped = true
		if s.cancel != nil {
			s.cancel()
		}
	}
}

// fatal aborts the sweep with err (first writer wins) — used for
// deterministic request rejections no amount of requeueing can cure.
func (s *sched) fatal(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// stop wakes every waiting slot so it can exit (run cancelled or
// merge finished/failed).
func (s *sched) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// error returns the sweep-fatal error, if any.
func (s *sched) error() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
