// Package admission is the bounded worker pool that keeps the serve
// layer's CPU-heavy verbs from piling up goroutines under bursts. Work is
// submitted into one of two priority classes — interactive what-if
// operations jump the queue ahead of batch advise/materialize — and a
// full queue rejects immediately (the HTTP layer turns that into a 429
// with Retry-After) instead of queueing without bound.
//
// The contract the serve handlers rely on: Do never returns while the
// submitted function might still run. A caller whose context dies while
// the job is queued either atomically withdraws the job (the worker will
// skip it) or, if a worker claimed it first, waits for it to finish. That
// is what makes it safe to write an http.ResponseWriter from inside the
// job.
package admission

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Class is a scheduling priority class.
type Class int

const (
	// Interactive is the what-if loop: index add/drop, evaluate, explain,
	// re-advise. Workers drain this queue first.
	Interactive Class = iota
	// Batch is the heavy tail: full advise runs and materialization. Served
	// only when no interactive work waits.
	Batch
)

// String names the class for metrics labels.
func (c Class) String() string {
	if c == Interactive {
		return "interactive"
	}
	return "batch"
}

// ErrQueueFull reports that the class's queue had no room — the caller
// should back off and retry.
var ErrQueueFull = errors.New("admission: queue full")

// ErrClosed reports submission to a closed pool.
var ErrClosed = errors.New("admission: pool closed")

const (
	stateQueued int32 = iota
	stateClaimed
	stateWithdrawn
)

type job struct {
	ctx   context.Context
	fn    func()
	state atomic.Int32
	done  chan struct{}
}

// Config sizes a Pool.
type Config struct {
	// Workers is the number of concurrently running jobs. <=0 defaults to
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds each class's wait queue. <=0 defaults to 64.
	QueueDepth int
	// OnReject, when set, observes every queue-full rejection.
	OnReject func(Class)
	// Hold, when set, runs in the worker before each claimed job — a test
	// hook that lets races be staged deterministically.
	Hold func(ctx context.Context)
}

// Pool is a fixed-size worker pool with two bounded priority queues.
type Pool struct {
	cfg  Config
	qi   chan *job // interactive
	qb   chan *job // batch
	stop chan struct{}
	wg   sync.WaitGroup

	// closeMu excludes enqueue against Close's drain: Do enqueues under
	// the read lock, Close flips closed under the write lock, so no job
	// can slip into a queue after the drain pass.
	closeMu sync.RWMutex
	closed  bool

	running  atomic.Int64
	admitted atomic.Int64
	rejected [2]atomic.Int64
}

// New starts the pool's workers.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	p := &Pool{
		cfg:  cfg,
		qi:   make(chan *job, cfg.QueueDepth),
		qb:   make(chan *job, cfg.QueueDepth),
		stop: make(chan struct{}),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Do submits fn at the given priority and blocks until it has run, the
// queue rejects it, or ctx dies while it is still waiting in queue.
func (p *Pool) Do(ctx context.Context, class Class, fn func()) error {
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	q := p.qb
	if class == Interactive {
		q = p.qi
	}

	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return ErrClosed
	}
	select {
	case q <- j:
		p.closeMu.RUnlock()
	default:
		p.closeMu.RUnlock()
		p.rejected[class].Add(1)
		if p.cfg.OnReject != nil {
			p.cfg.OnReject(class)
		}
		return ErrQueueFull
	}

	select {
	case <-j.done:
		if j.state.Load() == stateWithdrawn {
			return ErrClosed // pool closed while the job was queued
		}
		return nil
	case <-ctx.Done():
		if j.state.CompareAndSwap(stateQueued, stateWithdrawn) {
			// Still queued: the worker that eventually dequeues it will
			// skip the fn, so returning now is safe.
			return ctx.Err()
		}
		// A worker claimed it first (the fn is, or is about to be,
		// running — wait it out), or Close's drain withdrew it.
		<-j.done
		if j.state.Load() == stateWithdrawn {
			return ctx.Err()
		}
		return nil
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		// Interactive work always wins when both queues have entries.
		select {
		case j := <-p.qi:
			p.exec(j)
			continue
		default:
		}
		select {
		case j := <-p.qi:
			p.exec(j)
		case j := <-p.qb:
			p.exec(j)
		case <-p.stop:
			return
		}
	}
}

func (p *Pool) exec(j *job) {
	defer close(j.done)
	if !j.state.CompareAndSwap(stateQueued, stateClaimed) {
		return // withdrawn while queued
	}
	p.admitted.Add(1)
	p.running.Add(1)
	defer p.running.Add(-1)
	if p.cfg.Hold != nil {
		p.cfg.Hold(j.ctx)
	}
	j.fn()
}

// Close stops the workers and fails every job still queued (their Do
// calls return ErrClosed). Safe to call more than once.
func (p *Pool) Close() {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return
	}
	p.closed = true
	p.closeMu.Unlock()

	close(p.stop)
	p.wg.Wait()
	// No worker runs and no enqueue can happen (closed flag): drain what
	// is left so queued callers unblock.
	for {
		select {
		case j := <-p.qi:
			j.state.CompareAndSwap(stateQueued, stateWithdrawn)
			close(j.done)
		case j := <-p.qb:
			j.state.CompareAndSwap(stateQueued, stateWithdrawn)
			close(j.done)
		default:
			return
		}
	}
}

// Stats is a point-in-time view of the pool.
type Stats struct {
	Workers    int
	QueueDepth int
	Running    int64
	Admitted   int64
	// Queued* are current queue lengths; Rejected* are lifetime
	// queue-full rejection totals.
	QueuedInteractive   int
	QueuedBatch         int
	RejectedInteractive int64
	RejectedBatch       int64
}

// Stats samples the pool.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:             p.cfg.Workers,
		QueueDepth:          p.cfg.QueueDepth,
		Running:             p.running.Load(),
		Admitted:            p.admitted.Load(),
		QueuedInteractive:   len(p.qi),
		QueuedBatch:         len(p.qb),
		RejectedInteractive: p.rejected[Interactive].Load(),
		RejectedBatch:       p.rejected[Batch].Load(),
	}
}

// Saturated reports whether the batch queue is full — the readiness
// signal: a saturated server should be rotated out of a load balancer
// before it starts returning 429s for batch work.
func (p *Pool) Saturated() bool {
	return len(p.qb) >= p.cfg.QueueDepth
}
