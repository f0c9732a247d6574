package pcore

import (
	"fmt"

	"repro/internal/clock"
)

// killedSignal unwinds a task coroutine that the kernel is terminating.
type killedSignal struct{}

// exitSignal unwinds a task coroutine that called Ctx.Exit.
type exitSignal struct{}

// errRetry is the internal wake status telling a blocking wrapper to
// re-issue its request (used when a blocked task was suspended out of a
// wait queue and later resumed without being granted the resource).
var errRetry = fmt.Errorf("pcore: retry wait")

// reqKind enumerates task→kernel requests.
type reqKind uint8

const (
	reqYield reqKind = iota
	reqExit
	reqCompute
	reqProgress
	reqStackPush
	reqStackPop
	reqSemWait
	reqSemSignal
	reqMutexLock
	reqMutexUnlock
	reqQueueSend
	reqQueueRecv
	reqTaskPanic
)

// request is the single in-flight task→kernel message, the value a task
// coroutine yields. Exactly one request exists at a time because exactly
// one coroutine runs at a time.
type request struct {
	kind   reqKind
	task   *Task
	cycles clock.Cycles // reqCompute burst
	bytes  int          // reqStackPush/Pop frame size
	sem    *Sem
	mu     *Mutex
	q      *MsgQueue
	msg    uint32 // reqQueueSend payload
	detail string // reqTaskPanic message
}

// Task is a pCore task control block plus the coroutine running its
// entry function.
type Task struct {
	id    TaskID
	name  string
	prio  Priority
	state State
	entry func(*Ctx)

	next  func() (request, bool) // resume until the next kernel request
	stop  func()                 // unwind a parked coroutine
	yield func(request) bool     // the coroutine's side of next
	final request                // exit or panic, left by run on its way out

	tcbBlock   int
	stackBlock int
	stackUsed  int
	corrupted  bool // scribbled on by an unguarded stack overflow

	waitSem   *Sem
	waitMu    *Mutex
	waitSendQ *MsgQueue
	waitRecvQ *MsgQueue
	sendVal   uint32 // message offered while blocked sending
	recvVal   uint32 // message delivered by the kernel

	syscallErr error // kernel→task wake status

	progress  uint64
	syscalls  uint64
	created   clock.Cycles
	sliceUsed clock.Cycles
}

// ID returns the task id.
func (t *Task) ID() TaskID { return t.id }

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Priority returns the current priority.
func (t *Task) Priority() Priority { return t.prio }

// State returns the scheduling state.
func (t *Task) State() State { return t.state }

// Progress returns the application progress counter.
func (t *Task) Progress() uint64 { return t.progress }

// run is the coroutine body hosting the task's entry function. Every way
// out of the entry ends here: a return or Ctx.Exit leaves reqExit in
// t.final, an application panic leaves reqTaskPanic, and a kill (stop
// while parked) unwinds silently. The recover must stay in here, because
// iter.Pull re-raises a coroutine's panic in the kernel.
func (t *Task) run(yield func(request) bool) {
	t.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil, exitSignal:
			t.final = request{kind: reqExit, task: t}
		case killedSignal:
		default:
			// Application code panicked inside the simulated task: surface
			// it as a kernel fault rather than crashing the host process.
			t.final = request{kind: reqTaskPanic, task: t, detail: fmt.Sprint(r)}
		}
	}()
	t.entry(&Ctx{t: t})
}

// resume runs the task until it makes its next kernel request; once the
// body has finished, that is the final request it left behind.
func (t *Task) resume() request {
	if req, ok := t.next(); ok {
		return req
	}
	return t.final
}

// syscall yields the request to the kernel and returns when the task is
// next dispatched. A false yield means the kernel stopped the coroutine.
func (t *Task) syscall(req request) error {
	if !t.yield(req) {
		panic(killedSignal{})
	}
	return t.syscallErr
}

// Ctx is the task-side kernel API handed to entry functions — the system
// calls a task running on pCore may perform on its own behalf. (The
// Table I task-management services operate on other tasks and are issued
// through the kernel/committee interface instead.)
type Ctx struct{ t *Task }

// ID returns the calling task's id.
func (c *Ctx) ID() TaskID { return c.t.id }

// Name returns the calling task's name.
func (c *Ctx) Name() string { return c.t.name }

// Priority returns the calling task's current priority.
func (c *Ctx) Priority() Priority { return c.t.prio }

// Yield gives up the processor to other ready tasks (the yield() of the
// paper's Figure 1) without changing state.
func (c *Ctx) Yield() { _ = c.t.syscall(request{kind: reqYield, task: c.t}) }

// Compute charges a burst of virtual cycles of pure computation; it is a
// preemption point but keeps the task ready.
func (c *Ctx) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	_ = c.t.syscall(request{kind: reqCompute, task: c.t, cycles: clock.Cycles(cycles)})
}

// Progress marks application-level progress; the bug detector treats a
// task that keeps scheduling without marking progress as potentially
// livelocked/starved.
func (c *Ctx) Progress() { _ = c.t.syscall(request{kind: reqProgress, task: c.t}) }

// Exit terminates the calling task voluntarily. It unwinds the task body
// and never returns.
func (c *Ctx) Exit() {
	panic(exitSignal{})
}

// StackPush models entering a function frame of the given size on the
// task's 512-byte stack; it returns an error only through kernel faulting
// (overflow crashes the slave, it does not return). Balance with StackPop.
func (c *Ctx) StackPush(bytes int) {
	_ = c.t.syscall(request{kind: reqStackPush, task: c.t, bytes: bytes})
}

// StackPop models leaving a function frame.
func (c *Ctx) StackPop(bytes int) {
	_ = c.t.syscall(request{kind: reqStackPop, task: c.t, bytes: bytes})
}

// SemWait blocks until the semaphore has a unit available and consumes it.
func (c *Ctx) SemWait(s *Sem) {
	for {
		err := c.t.syscall(request{kind: reqSemWait, task: c.t, sem: s})
		if err != errRetry {
			return
		}
	}
}

// SemSignal releases one unit of the semaphore.
func (c *Ctx) SemSignal(s *Sem) {
	_ = c.t.syscall(request{kind: reqSemSignal, task: c.t, sem: s})
}

// Lock acquires the mutex, blocking while another task owns it.
func (c *Ctx) Lock(m *Mutex) {
	for {
		err := c.t.syscall(request{kind: reqMutexLock, task: c.t, mu: m})
		if err != errRetry {
			return
		}
	}
}

// Unlock releases the mutex; unlocking a mutex the task does not own is
// a kernel assert (crashes the simulated slave, as on a tiny RTOS with
// assertions enabled).
func (c *Ctx) Unlock(m *Mutex) {
	_ = c.t.syscall(request{kind: reqMutexUnlock, task: c.t, mu: m})
}

// QueueSend enqueues a message, blocking while the queue is full.
func (c *Ctx) QueueSend(q *MsgQueue, msg uint32) {
	for {
		err := c.t.syscall(request{kind: reqQueueSend, task: c.t, q: q, msg: msg})
		if err != errRetry {
			return
		}
	}
}

// QueueRecv dequeues a message, blocking while the queue is empty.
func (c *Ctx) QueueRecv(q *MsgQueue) uint32 {
	for {
		err := c.t.syscall(request{kind: reqQueueRecv, task: c.t, q: q})
		if err != errRetry {
			return c.t.recvVal
		}
	}
}
