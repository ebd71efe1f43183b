package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	saim "github.com/ising-machines/saim"
	"github.com/ising-machines/saim/model"
)

// State is a job's lifecycle stage.
type State int

const (
	// StateQueued means the job waits for a worker.
	StateQueued State = iota
	// StateRunning means a worker is solving the job.
	StateRunning
	// StateDone means the solve finished and a result is available.
	StateDone
	// StateFailed means the solve returned an error (see Job.Result).
	StateFailed
	// StateCancelled means the job was cancelled; a best-so-far result is
	// still available when the cancel landed mid-solve.
	StateCancelled
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrNotFinished is returned by Job.Result while the job is queued or
// running.
var ErrNotFinished = errors.New("service: job not finished")

// Job is one tracked solve. All methods are safe for concurrent use.
type Job struct {
	id  string
	key string
	mgr *Manager
	req Request

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// warm is the checkpointed best-so-far assignment a recovered job
	// restarts from (nil for fresh jobs); recovered marks a job
	// re-queued by Open. Both are set before the job is visible to any
	// worker and read-only afterwards.
	warm      []int
	recovered bool

	// wireOnly marks a job whose whole configuration is wire-encodable
	// (no functional options), making it eligible for Steal. Set before
	// the job is visible to any worker and read-only afterwards.
	wireOnly bool

	// journaled is closed once Submit has settled the job's submitted
	// record: appended, or failed and retracted. Workers and Steal wait
	// for it, so the submitted record precedes every other record of the
	// job in the log. Nil when there is nothing to wait for (in-memory
	// managers, recovered jobs). Set before the job is visible to any
	// worker and read-only afterwards.
	journaled chan struct{}

	mu        sync.Mutex
	state     State // guarded by mu
	cancelled bool  // guarded by mu
	// retracted marks a submission whose journal append failed: it has
	// no records in the log and must never get any. guarded by mu
	retracted bool
	// remote marks a job currently executing on another cluster node
	// (handed out by Steal); lease re-queues it if the thief never
	// reports back. guarded by mu
	remote    bool
	lease     *time.Timer                // guarded by mu
	attempts  int                        // guarded by mu
	hits      int                        // guarded by mu
	err       error                      // guarded by mu
	sol       *model.Solution            // guarded by mu
	last      saim.Progress              // guarded by mu
	hasLast   bool                       // guarded by mu
	subs      map[int]chan saim.Progress // guarded by mu
	nextSub   int                        // guarded by mu
	submitted time.Time                  // guarded by mu
	started   time.Time                  // guarded by mu
	finished  time.Time                  // guarded by mu
}

func (j *Job) lock()   { j.mu.Lock() }
func (j *Job) unlock() { j.mu.Unlock() }

// journalSettled reports, without blocking, whether Submit has settled
// the job's submitted record.
func (j *Job) journalSettled() bool {
	if j.journaled == nil {
		return true
	}
	select {
	case <-j.journaled:
		return true
	default:
		return false
	}
}

// ID returns the job's unique identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is a point-in-time snapshot of a job.
type Status struct {
	// ID is the job identifier; Solver the requested backend.
	ID, Solver string
	// State is the lifecycle stage at snapshot time.
	State State
	// Hits counts submissions served by this job: 1 for a fresh job, +1
	// for every deduplicated duplicate.
	Hits int
	// Submitted, Started, Finished are the lifecycle timestamps (zero
	// when the stage was not reached yet).
	Submitted, Started, Finished time.Time
	// Progress is the latest streamed snapshot; HasProgress reports
	// whether one arrived yet.
	Progress    saim.Progress
	HasProgress bool
	// Err is the failure message of a failed job ("" otherwise).
	Err string
	// Attempts counts solve attempts (>1 after panic retries; 0 while
	// queued).
	Attempts int
	// Recovered marks a job re-queued from the durable journal after a
	// restart.
	Recovered bool
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.lock()
	defer j.unlock()
	st := Status{
		ID:          j.id,
		Solver:      j.req.Solver,
		State:       j.state,
		Hits:        j.hits,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
		Progress:    j.last,
		HasProgress: j.hasLast,
		Attempts:    j.attempts,
		Recovered:   j.recovered,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Result returns the finished job's solver result. It returns
// ErrNotFinished while the job is queued or running, the solve error for
// a failed job, and the best-so-far result (possibly with no feasible
// assignment) for a cancelled one.
func (j *Job) Result() (*saim.Result, error) {
	j.lock()
	defer j.unlock()
	switch j.state {
	case StateQueued, StateRunning:
		return nil, ErrNotFinished
	case StateFailed:
		return nil, j.err
	}
	if j.sol == nil {
		return nil, j.err
	}
	return j.sol.Result(), nil
}

// Solution returns the finished job's name-aware solution (nil together
// with the error under the same conditions as Result).
func (j *Job) Solution() (*model.Solution, error) {
	j.lock()
	defer j.unlock()
	switch j.state {
	case StateQueued, StateRunning:
		return nil, ErrNotFinished
	case StateFailed:
		return nil, j.err
	}
	if j.sol == nil {
		return nil, j.err
	}
	return j.sol, nil
}

// Wait blocks until the job finishes or the context expires, then returns
// Result.
func (j *Job) Wait(ctx context.Context) (*saim.Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel requests cancellation: a queued job is dropped before it ever
// runs; a running job's solve returns promptly with its best-so-far
// result, and the job is detached from the dedup index so a fresh
// identical submission starts a new solve instead of adopting the
// cancelled one. Cancelling a finished job is a true no-op — in
// particular it does NOT evict the job's cached result, so a stray
// cancel cannot defeat the dedup cache.
func (j *Job) Cancel() {
	j.lock()
	active := j.state == StateQueued || j.state == StateRunning
	if active {
		j.cancelled = true
	}
	j.unlock()
	if !active {
		return
	}
	j.cancel()
	j.mgr.detach(j)
}

// Subscribe registers a progress listener: a channel receiving every
// snapshot streamed after the call (buffered to buf, minimum 1; when a
// slow consumer falls behind, the oldest unread snapshot is dropped so
// the stream always converges to the latest state). The channel is closed
// when the job finishes. The returned stop function unregisters early.
func (j *Job) Subscribe(buf int) (<-chan saim.Progress, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan saim.Progress, buf)
	j.lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		// Late subscription to a finished job: replay the last snapshot
		// (when any) and close immediately.
		if j.hasLast {
			ch <- j.last
		}
		close(ch)
		j.unlock()
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	j.unlock()
	stop := func() {
		j.lock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
		j.unlock()
	}
	return ch, stop
}

// publish relays one progress snapshot to every subscriber. It runs on
// the solving goroutine (the WithProgress contract keeps that serialized
// per job), so subscribers observe snapshots in order.
func (j *Job) publish(p saim.Progress) {
	j.lock()
	j.last = p
	j.hasLast = true
	for _, ch := range j.subs {
		for {
			select {
			case ch <- p:
			default:
				// Full buffer: drop the oldest so the newest wins.
				select {
				case <-ch:
				default:
				}
				continue
			}
			break
		}
	}
	j.unlock()
}

// finalize moves the job into a terminal state, closes subscriber
// channels, and signals Done.
func (j *Job) finalize(state State, sol *model.Solution, err error) {
	j.lock()
	j.state = state
	j.sol = sol
	j.err = err
	j.finished = time.Now()
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	j.unlock()
	close(j.done)
}
