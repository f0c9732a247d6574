package pcore

import (
	"fmt"
	"iter"

	"repro/internal/clock"
)

// This file implements the Table I task-management services as invoked
// remotely: "each task in pCore is controlled by the corresponding remote
// thread in Linux". The committee dispatches incoming remote commands to
// these methods.

func (k *Kernel) meter(s Service, cost clock.Cycles) {
	k.svcCalls[s]++
	k.svcCycles[s] += cost
	k.cycles += cost
	k.emit(Event{Kind: EvService, Service: s})
	k.maybeGC()
}

func (k *Kernel) serviceErr(s Service, id TaskID, format string, args ...any) error {
	return &ServiceError{Service: s, Task: id, Msg: fmt.Sprintf(format, args...)}
}

func (k *Kernel) liveTask(s Service, id TaskID) (*Task, error) {
	if id == InvalidTask || int(id) > k.cfg.MaxTasks {
		return nil, k.serviceErr(s, id, "no such task")
	}
	t := k.tasks[id]
	if t == nil {
		return nil, k.serviceErr(s, id, "no such task")
	}
	if t.corrupted {
		// A stack overflow with the guard disabled scribbled over this
		// TCB; the next service touching it brings the kernel down.
		k.crash(FaultAssert, fmt.Sprintf("TCB of task %q corrupted by stack overflow", t.name), id)
		return nil, k.fault
	}
	return t, nil
}

// CreateTask implements task_create (TC): allocate a TCB and stack from
// the kernel pools, register the entry function and make the task ready.
// Pool pressure triggers an emergency collection; if the pool is still
// empty afterwards the kernel crashes — on a healthy kernel that cannot
// happen, and with the GC fault armed it is exactly the paper's first
// discovered bug.
func (k *Kernel) CreateTask(name string, prio Priority, entry func(*Ctx)) (TaskID, error) {
	if k.fault != nil {
		return InvalidTask, k.fault
	}
	if prio >= NumPriorities {
		return InvalidTask, k.serviceErr(SvcTaskCreate, 0, "priority %d out of range", prio)
	}
	if entry == nil {
		return InvalidTask, k.serviceErr(SvcTaskCreate, 0, "nil entry")
	}
	slot := InvalidTask
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if k.tasks[id] == nil {
			slot = id
			break
		}
	}
	if slot == InvalidTask {
		return InvalidTask, k.serviceErr(SvcTaskCreate, 0,
			"all %d task slots in use", k.cfg.MaxTasks)
	}
	alloc := func(p *Pool, what string) (int, error) {
		if b, ok := p.Alloc(); ok {
			return b, nil
		}
		k.runGC("emergency")
		if k.fault != nil {
			return -1, k.fault
		}
		if b, ok := p.Alloc(); ok {
			return b, nil
		}
		return -1, k.crash(FaultPoolExhausted,
			fmt.Sprintf("%s pool empty after emergency GC (leaked=%d)", what, p.Leaked()), 0)
	}
	tcbBlock, err := alloc(k.tcbPool, "tcb")
	if err != nil {
		return InvalidTask, err
	}
	stackBlock, err := alloc(k.stackPool, "stack")
	if err != nil {
		return InvalidTask, err
	}
	t := &Task{
		id:         slot,
		name:       name,
		prio:       prio,
		entry:      entry,
		k:          k,
		tcbBlock:   tcbBlock,
		stackBlock: stackBlock,
		created:    k.cycles,
	}
	// The coroutine's body first runs when the task is first dispatched.
	t.next, t.stop = iter.Pull(t.run)
	k.tasks[slot] = t
	k.enqueueBack(t)
	k.meter(SvcTaskCreate, CostTaskCreate)
	return slot, nil
}

// DeleteTask implements task_delete (TD): terminate the task in any
// state and release its resources for garbage collection. Deleting a
// task that owns a mutex leaks the lock — deliberately, as a tiny kernel
// does not track ownership for cleanup; the stress tester is there to
// expose exactly such hazards.
func (k *Kernel) DeleteTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskDelete, id)
	if err != nil {
		return err
	}
	k.releaseTask(t, "deleted")
	if k.fault != nil {
		return k.fault
	}
	k.meter(SvcTaskDelete, CostTaskDelete)
	return nil
}

// SuspendTask implements task_suspend (TS). A blocked task is pulled out
// of its wait queue; on resume its wait is retried.
func (k *Kernel) SuspendTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskSuspend, id)
	if err != nil {
		return err
	}
	switch t.state {
	case StateReady, StateRunning:
		k.dequeue(t)
	case StateBlocked:
		t.leaveWait()
		t.syscallErr = errRetry
	case StateSuspended:
		return k.serviceErr(SvcTaskSuspend, id, "already suspended")
	default:
		return k.serviceErr(SvcTaskSuspend, id, "cannot suspend %s task", t.state)
	}
	t.state = StateSuspended
	k.emit(Event{Task: id, Kind: EvBlock, Detail: "suspended"})
	k.meter(SvcTaskSuspend, CostTaskSuspend)
	return nil
}

// ResumeTask implements task_resume (TR). Per the paper, "the task
// resuming operation can be performed only when the corresponding task is
// suspended"; resuming any other state is a service error. The
// DropResumeEvery fault makes every n-th resume a silent lost wakeup.
func (k *Kernel) ResumeTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskResume, id)
	if err != nil {
		return err
	}
	if t.state != StateSuspended {
		return k.serviceErr(SvcTaskResume, id, "task is %s, not suspended", t.state)
	}
	k.fstate.resumeCalls++
	if k.plan.DropResumeEvery > 0 && k.fstate.resumeCalls%k.plan.DropResumeEvery == 0 {
		// Lost wakeup: report success, change nothing.
		k.meter(SvcTaskResume, CostTaskResume)
		return nil
	}
	k.enqueueBack(t)
	k.emit(Event{Task: id, Kind: EvWake, Detail: "resumed"})
	k.meter(SvcTaskResume, CostTaskResume)
	return nil
}

// ChangePriority implements task_chanprio (TCH). The
// MisplacePriorityEvery fault applies the lowest priority instead of the
// requested one on every n-th call.
func (k *Kernel) ChangePriority(id TaskID, prio Priority) error {
	if k.fault != nil {
		return k.fault
	}
	if prio >= NumPriorities {
		return k.serviceErr(SvcTaskChanprio, id, "priority %d out of range", prio)
	}
	t, err := k.liveTask(SvcTaskChanprio, id)
	if err != nil {
		return err
	}
	k.fstate.chanprioCalls++
	applied := prio
	if k.plan.MisplacePriorityEvery > 0 && k.fstate.chanprioCalls%k.plan.MisplacePriorityEvery == 0 {
		applied = NumPriorities - 1
	}
	if t.state == StateReady {
		k.dequeue(t)
		t.prio = applied
		k.enqueueBack(t)
	} else {
		t.prio = applied
	}
	k.meter(SvcTaskChanprio, CostTaskChanprio)
	return nil
}

// TerminateTask implements task_yield (TY) as Table I defines it —
// "terminate the current running task" — applied through the one-to-one
// master-thread correspondence: the committee resolves the issuing
// thread's task and terminates it.
func (k *Kernel) TerminateTask(id TaskID) error {
	if k.fault != nil {
		return k.fault
	}
	t, err := k.liveTask(SvcTaskYield, id)
	if err != nil {
		return err
	}
	k.releaseTask(t, "TY")
	if k.fault != nil {
		return k.fault
	}
	k.meter(SvcTaskYield, CostTaskYield)
	return nil
}

// --- synchronization object factories -----------------------------------

// NewSem creates a counting semaphore with the given initial count.
// Synchronization objects are kernel-independent values; the kernel
// method exists for API symmetry with real pCore.
func (k *Kernel) NewSem(name string, initial int) *Sem { return NewSem(name, initial) }

// NewMutex creates a mutex.
func (k *Kernel) NewMutex(name string) *Mutex { return NewMutex(name) }

// NewSem creates a counting semaphore with the given initial count.
func NewSem(name string, initial int) *Sem {
	return &Sem{name: name, count: initial}
}

// NewMutex creates a mutex.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name}
}

// --- introspection -------------------------------------------------------

// TaskSnapshot is one task's observable state for records and dumps.
type TaskSnapshot struct {
	ID        TaskID
	Name      string
	State     State
	Prio      Priority
	Progress  uint64
	Syscalls  uint64
	StackUsed int
	WaitingOn string // resource name while blocked
}

// Snapshot captures the kernel's observable state.
type Snapshot struct {
	Cycles      clock.Cycles
	Tasks       []TaskSnapshot
	Fault       *KernelFault
	TCBFree     int
	TCBGarbage  int
	TCBLeaked   int
	StackFree   int
	Ready       int
	CtxSwitches uint64
}

// Snapshot returns the current kernel state, tasks ordered by id.
func (k *Kernel) Snapshot() Snapshot {
	s := Snapshot{
		Cycles:      k.cycles,
		Fault:       k.fault,
		TCBFree:     k.tcbPool.Free(),
		TCBGarbage:  k.tcbPool.Garbage(),
		TCBLeaked:   k.tcbPool.Leaked(),
		StackFree:   k.stackPool.Free(),
		Ready:       k.ReadyCount(),
		CtxSwitches: k.ctxSwitches,
	}
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if t := k.tasks[id]; t != nil {
			s.Tasks = append(s.Tasks, t.snapshot())
		}
	}
	return s
}

func (t *Task) snapshot() TaskSnapshot {
	ts := TaskSnapshot{
		ID:        t.id,
		Name:      t.name,
		State:     t.state,
		Prio:      t.prio,
		Progress:  t.progress,
		Syscalls:  t.syscalls,
		StackUsed: t.stackUsed,
	}
	if t.waitSem != nil {
		ts.WaitingOn = "sem:" + t.waitSem.name
	}
	if t.waitMu != nil {
		ts.WaitingOn = "mutex:" + t.waitMu.name
	}
	if t.waitSendQ != nil {
		ts.WaitingOn = "q-send:" + t.waitSendQ.name
	}
	if t.waitRecvQ != nil {
		ts.WaitingOn = "q-recv:" + t.waitRecvQ.name
	}
	return ts
}

// TaskInfo returns one task's snapshot; ok is false for free slots.
func (k *Kernel) TaskInfo(id TaskID) (TaskSnapshot, bool) {
	if id == InvalidTask || int(id) > k.cfg.MaxTasks || k.tasks[id] == nil {
		return TaskSnapshot{}, false
	}
	return k.tasks[id].snapshot(), true
}

// Tasks iterates over the live tasks in id order without allocating.
func (k *Kernel) Tasks() iter.Seq[*Task] {
	return func(yield func(*Task) bool) {
		for _, t := range k.tasks[1:] {
			if t != nil && !yield(t) {
				return
			}
		}
	}
}

// LiveTasks returns the ids of all non-free task slots, ascending.
func (k *Kernel) LiveTasks() []TaskID {
	var out []TaskID
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if k.tasks[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// waitsFor returns the task that task id waits for — the live owner of
// the mutex it is blocked on — or InvalidTask when there is none. Edges to dead
// owners are excluded: a mutex whose owner was deleted (pCore leaks such
// locks deliberately) is an orphaned lock, reported separately through
// OrphanedWaiters — and because TCB slots are reused, a stale owner
// pointer must be compared by identity, not by id.
func (k *Kernel) waitsFor(id TaskID) TaskID {
	t := k.tasks[id]
	if t == nil || t.state != StateBlocked || t.waitMu == nil || t.waitMu.owner == nil {
		return InvalidTask
	}
	owner := t.waitMu.owner
	if k.tasks[owner.id] != owner {
		return InvalidTask // owner terminated; slot may hold a new incarnation
	}
	return owner.id
}

// WaitForGraph returns the blocked-on-mutex edges task → current owner,
// the input to the detector's deadlock (cycle) analysis. A task waits on
// at most one mutex, so each node has at most one edge.
func (k *Kernel) WaitForGraph() map[TaskID][]TaskID {
	g := map[TaskID][]TaskID{}
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		if owner := k.waitsFor(id); owner != InvalidTask {
			g[id] = []TaskID{owner}
		}
	}
	return g
}

// HasWaitCycle reports whether the wait-for graph has a cycle, without
// building it or allocating: with at most one edge per node, a walk
// along owner edges from each task not yet reached closes a cycle
// exactly when it comes back to a task it reached itself.
func (k *Kernel) HasWaitCycle() bool {
	mark := k.waitMark
	clear(mark)
	for start := TaskID(1); int(start) <= k.cfg.MaxTasks; start++ {
		for id := start; mark[id] == 0; {
			mark[id] = start
			id = k.waitsFor(id)
			if id == InvalidTask {
				break
			}
			if mark[id] == start {
				return true
			}
		}
	}
	return false
}

// OrphanedWaiters returns tasks blocked on mutexes whose owners have
// terminated — locks leaked by task_delete/task_yield on a lock holder.
// Such waits can never be satisfied; the bug detector reports them as a
// synchronization anomaly in their own right.
func (k *Kernel) OrphanedWaiters() []TaskID {
	var out []TaskID
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		t := k.tasks[id]
		if t == nil || t.state != StateBlocked || t.waitMu == nil || t.waitMu.owner == nil {
			continue
		}
		owner := t.waitMu.owner
		if k.tasks[owner.id] != owner {
			out = append(out, id)
		}
	}
	return out
}

// ServiceStats returns per-service call counts and cumulative cycles.
func (k *Kernel) ServiceStats() (calls map[Service]uint64, cycles map[Service]clock.Cycles) {
	calls = make(map[Service]uint64, len(k.svcCalls))
	cycles = make(map[Service]clock.Cycles, len(k.svcCycles))
	for s, n := range k.svcCalls {
		calls[s] = n
	}
	for s, c := range k.svcCycles {
		cycles[s] = c
	}
	return calls, cycles
}

// Shutdown terminates every remaining task, unwinding its coroutine.
// The kernel is unusable afterwards. Safe to call on a crashed kernel.
func (k *Kernel) Shutdown() {
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		t := k.tasks[id]
		if t == nil {
			continue
		}
		k.releaseTask(t, "shutdown")
	}
	if k.fault == nil {
		k.fault = &KernelFault{Reason: "shutdown", Detail: "kernel halted", At: k.cycles}
	}
}
