package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// The persistent worker pool. PF-OLA's lesson (and our own PR 2
// profiles) is that parallel OLA pays off only when estimation work is
// overlapped with execution instead of re-set-up at every barrier. Each
// pool owns P long-lived workers, each with a reusable context (one
// stage per runner — parallel.go — and a refreshable classification
// environment). The controller feeds work descriptors over per-worker
// channels; part k always runs on worker k and results are merged in
// worker order, so a pooled fold is bit-identical to a serial run (up
// to the group-ordering caveats of parallel.go). The engine owns one
// pool — newWorkerPool is the only place the runtime creates
// goroutines.
//
// Fault containment: a task panic must not take down the worker (its
// channel would deadlock every later barrier) or the process. scatter
// is submit's only caller, so every pool task runs inside a scatter
// barrier: the task recovers its own panic into the part's error slot
// (value and stack), the barrier still releases, and scatter
// quarantines the affected stage and redoes the part. No pool work is
// therefore in flight between barriers — collectResidency, Close,
// replay and checkpoint all read worker state at batch boundaries on
// that guarantee.
//
// Lifecycle: the engine's pool is created lazily on first parallel work
// and stopped by Engine.Close. A finalizer backstops engines that are
// dropped without Close — workers hold no reference to the engine
// between tasks (contexts are delivered inside each task, and the task
// value is cleared before the next blocking receive), so an abandoned
// engine becomes collectable and its finalizer shuts the workers down.
// submit after stop returns ErrPoolStopped (never panics); callers fall
// back to the serial path.

// workerPanic is one recovered task panic: the part's failure cause.
type workerPanic struct {
	worker int
	val    any
	stack  []byte
}

func (p *workerPanic) Error() string { return panicNote(p.val) }

// recoverPart turns a panic of part i into its error slot. Deferred by
// every task and redo, so a panic never escapes a scatter barrier.
func recoverPart(i int, slot *error) {
	if v := recover(); v != nil {
		*slot = &workerPanic{worker: i, val: v, stack: debug.Stack()}
	}
}

// poolTask is one unit of work: fn runs on the worker's goroutine with
// the worker's reusable context; wg is the submitter's barrier.
type poolTask struct {
	fn  func(*workerCtx)
	wg  *sync.WaitGroup
	ctx *workerCtx
}

// workerCtx is one worker's cross-batch scratch. It deliberately holds
// no *Engine or *blockRunner: the pool must not keep an abandoned
// engine reachable, or the shutdown finalizer could never run.
type workerCtx struct {
	id     int
	te     *triEnv
	stages []*stage // by runner index
}

// stage returns (creating on first use) the worker's persistent stage
// for runner r. A quarantined slot is simply rebuilt here.
func (wc *workerCtx) stage(r *blockRunner) *stage {
	for len(wc.stages) <= r.idx {
		wc.stages = append(wc.stages, nil)
	}
	if wc.stages[r.idx] == nil {
		wc.stages[r.idx] = r.newStage()
	}
	return wc.stages[r.idx]
}

// quarantine discards the worker's stage for runner r after a contained
// panic: a partially-folded table must never be merged or recycled, so
// the slot is dropped for the collector.
func (wc *workerCtx) quarantine(r *blockRunner) {
	if r.idx < len(wc.stages) {
		wc.stages[r.idx] = nil
	}
}

// refresh returns the worker's classification environment (built once
// per worker, Engine.newTriEnv), rebound to the engine's current
// parameter estimates.
func (wc *workerCtx) refresh(e *Engine) *triEnv {
	if wc.te == nil {
		wc.te = e.newTriEnv()
	}
	e.bind.refreshTriEnv(wc.te)
	return wc.te
}

// workerPool is a set of long-lived worker goroutines with per-worker
// task channels. Part i of any batch is always submitted to worker i,
// which pins a stage to one goroutine and makes merge order (and
// therefore output) deterministic.
type workerPool struct {
	chans []chan poolTask
	ctxs  []*workerCtx
	mu    sync.RWMutex
	// stopped guards the channels: submit holds the read lock while
	// sending, stop flips the flag under the write lock before closing,
	// so a send on a closed channel is impossible.
	stopped bool
}

func newWorkerPool(size int) *workerPool {
	p := &workerPool{
		chans: make([]chan poolTask, size),
		ctxs:  make([]*workerCtx, size),
	}
	for i := range p.chans {
		// scatter sends each worker at most one task per barrier, so one
		// slot lets the controller enqueue every part without blocking.
		ch := make(chan poolTask, 1)
		p.chans[i] = ch
		p.ctxs[i] = &workerCtx{id: i}
		go poolWorker(ch)
	}
	return p
}

// poolWorker is the worker loop. It intentionally references nothing
// but its channel between tasks (the task value is zeroed before the
// next blocking receive), so an idle pool keeps only its channels alive.
func poolWorker(ch chan poolTask) {
	for {
		t, ok := <-ch
		if !ok {
			return
		}
		t.fn(t.ctx)
		t.wg.Done()
		t = poolTask{}
		_ = t
	}
}

// submit schedules fn on worker w under the given barrier; fn must not
// panic (scatter's tasks recover into their part's slot). After stop
// it returns ErrPoolStopped without touching the closed channels; the
// caller runs the work serially instead. Holding the read lock across
// the send cannot deadlock stop: workers drain buffered tasks before
// exiting, so a blocked send always completes.
func (p *workerPool) submit(w int, wg *sync.WaitGroup, fn func(*workerCtx)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.stopped {
		return ErrPoolStopped
	}
	wg.Add(1)
	p.chans[w] <- poolTask{fn: fn, wg: wg, ctx: p.ctxs[w]}
	return nil
}

// stop closes every worker channel. Idempotent; the caller must have
// drained all outstanding barriers first. submit after stop returns
// ErrPoolStopped.
func (p *workerPool) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	for _, ch := range p.chans {
		close(ch)
	}
}

// ladderAttempts bounds every containment ladder: redos of a failed
// part on a fresh stage before the failure escalates.
const ladderAttempts = 3

// scatter is the runtime's one dispatch → barrier → contain → redo
// step. run(wc, i) executes part i of n on worker i; a part fails by
// returning an error, panicking (contained, a *workerPanic) or never
// being submitted (pool stopped). After the barrier every failed part
// is redone on the calling goroutine, in part order, by redo(i, attempt,
// cause) — panics contained again — sleeping 1 ms before the second
// attempt and 2 ms before the third. Redos run one at a time on the
// controller, so there is nothing to de-synchronize and the sleeps carry
// no jitter. It returns the first part whose ladder was exhausted with
// its last error, or (-1, nil).
func (p *workerPool) scatter(n int, run func(wc *workerCtx, i int) error, redo func(i, attempt int, cause error) error) (int, error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := p.submit(i, &wg, func(wc *workerCtx) {
			defer recoverPart(i, &errs[i])
			errs[i] = run(wc, i)
		}); err != nil {
			// Pool stopped: this part and every later one never ran.
			for j := i; j < n; j++ {
				errs[j] = err
			}
			break
		}
	}
	wg.Wait()
	for i, cause := range errs {
		if cause == nil {
			continue
		}
		var err error
		for attempt := 1; attempt <= ladderAttempts; attempt++ {
			if attempt > 1 {
				time.Sleep(time.Millisecond << (attempt - 2))
			}
			err = func() (err error) {
				defer recoverPart(i, &err)
				return redo(i, attempt, cause)
			}()
			if err == nil {
				break
			}
		}
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// ensurePool returns the engine's worker pool, creating it (and
// arming the shutdown finalizer) on first use; nil after Close.
func (e *Engine) ensurePool() *workerPool {
	if e.closed {
		return nil
	}
	if e.pool == nil {
		e.pool = newWorkerPool(e.opt.Parallelism)
		runtime.SetFinalizer(e, (*Engine).Close)
	}
	return e.pool
}

// Close stops the engine's persistent worker pool and releases its
// scratch. It is idempotent and safe on engines that never went
// parallel. Further Steps fall back to serial execution. Engines
// dropped without Close are backstopped by a finalizer, but explicit
// Close releases the worker goroutines deterministically.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// Every pool task ran inside a scatter barrier that has returned, so
	// nothing is in flight on the workers when their channels close.
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
	runtime.SetFinalizer(e, nil)
}
