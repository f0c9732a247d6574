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

// request is a task→kernel message. Each task fills its own request
// slot and hands the kernel a pointer to it; a nil request means the
// task already served its call itself (see Task.syscall).
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
	k     *Kernel

	next  func() (*request, bool) // resume until the next kernel request
	stop  func()                  // unwind a parked coroutine
	yield func(*request) bool     // the coroutine's side of next
	req   request                 // the slot the task's system calls fill
	final request                 // exit or panic, left by run on its way out

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
func (t *Task) run(yield func(*request) bool) {
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
// body has finished, that is the final request it left behind. A nil
// request means the task served its last call itself.
func (t *Task) resume() *request {
	if req, ok := t.next(); ok {
		return req
	}
	return &t.final
}

// syscall issues the request in t.req and returns when the task is next
// dispatched. While t holds the processor inside a Kernel.Run, it serves
// the request itself, on its own coroutine; if the scheduler would then
// pick t again and the run has events left, t takes the next event
// without a coroutine switch. Requests that terminate the caller go to
// the kernel side, because a coroutine cannot stop itself. A false yield
// means the kernel stopped the coroutine.
func (t *Task) syscall() error {
	k, req := t.k, &t.req
	if k.running == t && !k.terminates(req) {
		k.finish(req)
		if k.continueRun(t) {
			return t.syscallErr
		}
		req = nil
	}
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
func (c *Ctx) Yield() {
	c.t.req = request{kind: reqYield, task: c.t}
	_ = c.t.syscall()
}

// Compute charges a burst of virtual cycles of pure computation; it is a
// preemption point but keeps the task ready.
func (c *Ctx) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	c.t.req = request{kind: reqCompute, task: c.t, cycles: clock.Cycles(cycles)}
	_ = c.t.syscall()
}

// Progress marks application-level progress; the bug detector treats a
// task that keeps scheduling without marking progress as potentially
// livelocked/starved.
func (c *Ctx) Progress() {
	c.t.req = request{kind: reqProgress, task: c.t}
	_ = c.t.syscall()
}

// Exit terminates the calling task voluntarily. It unwinds the task body
// and never returns.
func (c *Ctx) Exit() {
	panic(exitSignal{})
}

// StackPush models entering a function frame of the given size on the
// task's 512-byte stack; it returns an error only through kernel faulting
// (overflow crashes the slave, it does not return). Balance with StackPop.
func (c *Ctx) StackPush(bytes int) {
	c.t.req = request{kind: reqStackPush, task: c.t, bytes: bytes}
	_ = c.t.syscall()
}

// StackPop models leaving a function frame.
func (c *Ctx) StackPop(bytes int) {
	c.t.req = request{kind: reqStackPop, task: c.t, bytes: bytes}
	_ = c.t.syscall()
}

// SemWait blocks until the semaphore has a unit available and consumes it.
func (c *Ctx) SemWait(s *Sem) {
	for {
		c.t.req = request{kind: reqSemWait, task: c.t, sem: s}
		if c.t.syscall() != errRetry {
			return
		}
	}
}

// SemSignal releases one unit of the semaphore.
func (c *Ctx) SemSignal(s *Sem) {
	c.t.req = request{kind: reqSemSignal, task: c.t, sem: s}
	_ = c.t.syscall()
}

// Lock acquires the mutex, blocking while another task owns it.
func (c *Ctx) Lock(m *Mutex) {
	for {
		c.t.req = request{kind: reqMutexLock, task: c.t, mu: m}
		if c.t.syscall() != errRetry {
			return
		}
	}
}

// Unlock releases the mutex; unlocking a mutex the task does not own is
// a kernel assert (crashes the simulated slave, as on a tiny RTOS with
// assertions enabled).
func (c *Ctx) Unlock(m *Mutex) {
	c.t.req = request{kind: reqMutexUnlock, task: c.t, mu: m}
	_ = c.t.syscall()
}

// QueueSend enqueues a message, blocking while the queue is full.
func (c *Ctx) QueueSend(q *MsgQueue, msg uint32) {
	for {
		c.t.req = request{kind: reqQueueSend, task: c.t, q: q, msg: msg}
		if c.t.syscall() != errRetry {
			return
		}
	}
}

// QueueRecv dequeues a message, blocking while the queue is empty.
func (c *Ctx) QueueRecv(q *MsgQueue) uint32 {
	for {
		c.t.req = request{kind: reqQueueRecv, task: c.t, q: q}
		if c.t.syscall() != errRetry {
			return c.t.recvVal
		}
	}
}
