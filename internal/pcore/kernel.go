package pcore

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
)

// Config sets kernel parameters; zero values take pCore defaults.
type Config struct {
	// MaxTasks is the TCB table size (default 16, pCore's limit).
	MaxTasks int
	// StackSize is each task's stack in bytes (default 512, the paper's
	// stress-test configuration).
	StackSize int
	// GCEvery runs a background garbage-collection pass every n completed
	// kernel services (default 8).
	GCEvery int
	// Quantum is the compute budget before an equal-priority round-robin
	// rotation (default 500 cycles).
	Quantum clock.Cycles
	// Faults seeds the kernel with simulated bugs.
	Faults FaultPlan
	// Noise, when non-nil, is consulted at every continuation point (a
	// task completing a system call that would keep the processor): a
	// true return forces a yield to the back of the priority queue. It
	// is the hook the ConTest-style noise-injection baseline uses to
	// randomly perturb the schedule at synchronization points.
	Noise func() bool
}

func (c Config) withDefaults() Config {
	if c.MaxTasks <= 0 {
		c.MaxTasks = 16
	}
	if c.StackSize <= 0 {
		c.StackSize = 512
	}
	if c.GCEvery <= 0 {
		c.GCEvery = 8
	}
	if c.Quantum == 0 {
		c.Quantum = 500
	}
	return c
}

// Kernel is the simulated pCore instance. Not safe for concurrent use;
// the co-simulation is single-threaded by design.
type Kernel struct {
	cfg  Config
	plan FaultPlan

	tasks     []*Task // index 1..MaxTasks; nil = free slot
	ready     [NumPriorities]readyRing
	readyMask uint32 // bit p set while ready[p] is non-empty

	tcbPool   *Pool
	stackPool *Pool

	cycles  clock.Cycles
	fault   *KernelFault
	lastRun TaskID

	// The current Run: the task holding the processor in the event being
	// taken (nil between events), that event's context-switch cost, the
	// events the run may still take, the caller's after-event check, and
	// whether that check let the run go on.
	running    *Task
	switchCost clock.Cycles
	runLeft    int
	runAfter   func(cost clock.Cycles) bool
	runOn      bool

	waitMark []TaskID // HasWaitCycle's scratch: the walk that reached each slot

	fstate   faultState
	svcCount int

	onEvent func(Event)

	svcCalls    map[Service]uint64
	svcCycles   map[Service]clock.Cycles
	ctxSwitches uint64
	dispatches  uint64
	inline      uint64 // events a task took on its own coroutine
}

// New boots a kernel with the given configuration.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		cfg:       cfg,
		plan:      cfg.Faults,
		tasks:     make([]*Task, cfg.MaxTasks+1),
		waitMark:  make([]TaskID, cfg.MaxTasks+1),
		tcbPool:   NewPool("tcb", cfg.MaxTasks),
		stackPool: NewPool("stack", cfg.MaxTasks),
		svcCalls:  make(map[Service]uint64),
		svcCycles: make(map[Service]clock.Cycles),
	}
	slots := make([]TaskID, NumPriorities*cfg.MaxTasks)
	for p := range k.ready {
		k.ready[p].ids = slots[p*cfg.MaxTasks : (p+1)*cfg.MaxTasks : (p+1)*cfg.MaxTasks]
	}
	return k
}

// Cycles returns the kernel-local virtual time consumed so far.
func (k *Kernel) Cycles() clock.Cycles { return k.cycles }

// Fault returns the crash record, or nil while the kernel is healthy.
func (k *Kernel) Fault() *KernelFault { return k.fault }

// Crashed reports whether the kernel has crashed.
func (k *Kernel) Crashed() bool { return k.fault != nil }

// OnEvent registers the trace hook (last registration wins).
func (k *Kernel) OnEvent(fn func(Event)) { k.onEvent = fn }

func (k *Kernel) emit(e Event) {
	e.At = k.cycles
	if k.onEvent != nil {
		k.onEvent(e)
	}
}

// emitNamed emits an event whose detail is prefix+name, building the
// text only when a hook is listening.
func (k *Kernel) emitNamed(id TaskID, kind EventKind, prefix, name string) {
	if k.onEvent != nil {
		k.emit(Event{Task: id, Kind: kind, Detail: prefix + name})
	}
}

// crash records a kernel fault; the kernel refuses all work afterwards.
func (k *Kernel) crash(reason, detail string, task TaskID) *KernelFault {
	if k.fault != nil {
		return k.fault
	}
	k.fault = &KernelFault{Reason: reason, Detail: detail, Task: task, At: k.cycles}
	k.emit(Event{Task: task, Kind: EvFault, Detail: reason + ": " + detail})
	return k.fault
}

// --- ready queue management -------------------------------------------

// readyRing is one priority level's ready queue: a deque of task ids in
// a fixed ring of MaxTasks slots. A ready task sits in exactly one ready
// queue and a running or waiting task in none, so the ring never
// overflows and queue operations never allocate.
type readyRing struct {
	ids  []TaskID
	head int // slot of the front id
	n    int
}

// slot maps queue position i (0 = front) to its ring slot.
func (r *readyRing) slot(i int) int {
	if i += r.head; i >= len(r.ids) {
		i -= len(r.ids)
	}
	return i
}

func (r *readyRing) pushBack(id TaskID) {
	if r.n == len(r.ids) {
		panic("pcore: ready queue overflow")
	}
	r.ids[r.slot(r.n)] = id
	r.n++
}

func (r *readyRing) pushFront(id TaskID) {
	if r.n == len(r.ids) {
		panic("pcore: ready queue overflow")
	}
	r.head = r.slot(len(r.ids) - 1)
	r.ids[r.head] = id
	r.n++
}

func (r *readyRing) popFront() TaskID {
	id := r.ids[r.head]
	r.head = r.slot(1)
	r.n--
	return id
}

// remove deletes id, keeping the others in order.
func (r *readyRing) remove(id TaskID) {
	for i := 0; i < r.n; i++ {
		if r.ids[r.slot(i)] != id {
			continue
		}
		for ; i < r.n-1; i++ {
			r.ids[r.slot(i)] = r.ids[r.slot(i+1)]
		}
		r.n--
		return
	}
}

func (k *Kernel) enqueueBack(t *Task) {
	t.state = StateReady
	k.ready[t.prio].pushBack(t.id)
	k.readyMask |= 1 << uint(t.prio)
}

func (k *Kernel) enqueueFront(t *Task) {
	if k.cfg.Noise != nil && k.cfg.Noise() {
		// Injected noise: a forced yield at this continuation point.
		k.enqueueBack(t)
		return
	}
	t.state = StateReady
	k.ready[t.prio].pushFront(t.id)
	k.readyMask |= 1 << uint(t.prio)
}

func (k *Kernel) dequeue(t *Task) {
	q := &k.ready[t.prio]
	q.remove(t.id)
	if q.n == 0 {
		k.readyMask &^= 1 << uint(t.prio)
	}
}

// pickNext pops the highest-priority ready task (lowest numeric prio).
func (k *Kernel) pickNext() *Task {
	if k.readyMask == 0 {
		return nil
	}
	p := bits.TrailingZeros32(k.readyMask)
	q := &k.ready[p]
	id := q.popFront()
	if q.n == 0 {
		k.readyMask &^= 1 << uint(p)
	}
	return k.tasks[id]
}

// ReadyCount returns the number of ready tasks.
func (k *Kernel) ReadyCount() int {
	n := 0
	for p := 0; p < NumPriorities; p++ {
		n += k.ready[p].n
	}
	return n
}

// Idle reports whether no task is ready to run.
func (k *Kernel) Idle() bool { return k.readyMask == 0 }

// --- dispatch loop -----------------------------------------------------

// Step dispatches the highest-priority ready task for one kernel event
// (run until its next system call) and processes that call. It returns
// the virtual-cycle cost and whether any task ran. A crashed kernel
// never runs.
func (k *Kernel) Step() (clock.Cycles, bool) {
	cost, steps := k.Run(1, nil)
	return cost, steps > 0
}

// Run takes up to maxSteps kernel events, exactly as that many Step
// calls would. After each event, with the kernel's time already
// charged, it calls after (when non-nil) with the event's cost; a false
// return ends the run there. Run returns the summed cost and the events
// taken.
//
// A task that keeps the processor from one event to the next takes
// them on its own coroutine (see Task.syscall), and after runs there
// too, so it must not call back into the kernel. The loop here resumes
// a task only when the processor changes hands.
func (k *Kernel) Run(maxSteps int, after func(cost clock.Cycles) bool) (cost clock.Cycles, steps int) {
	start := k.cycles
	k.runLeft, k.runAfter, k.runOn = maxSteps, after, true
	for k.runMore() {
		t := k.pickNext()
		if t == nil {
			break
		}
		k.dispatch(t)
		if req := t.resume(); req != nil {
			k.finish(req)
		}
	}
	steps = maxSteps - k.runLeft
	k.runLeft, k.runAfter = 0, nil
	return k.cycles - start, steps
}

// runMore reports whether the current run may take another event.
func (k *Kernel) runMore() bool {
	return k.runOn && k.runLeft > 0 && k.fault == nil
}

// dispatch starts an event: t takes the processor, paying a context
// switch if another task ran last.
func (k *Kernel) dispatch(t *Task) {
	k.switchCost = 0
	if k.lastRun != t.id {
		k.switchCost = CostContextSw
		k.ctxSwitches++
		t.sliceUsed = 0
	}
	k.lastRun = t.id
	k.running = t
	k.runLeft--
	k.dispatches++
	t.state = StateRunning
	k.emit(Event{Task: t.id, Kind: EvDispatch})
}

// finish ends the running event with the task's request: it processes
// the request and charges the event's cost.
func (k *Kernel) finish(req *request) {
	k.running = nil
	req.task.syscalls++
	cost := k.switchCost + k.handle(req)
	k.cycles += cost
	k.runOn = k.runAfter == nil || k.runAfter(cost)
}

// continueRun starts the run's next event for t, which has just served
// its own request, when the run has room for it and t is the task
// pickNext would return: ready and at the front of the most urgent
// non-empty ready queue.
func (k *Kernel) continueRun(t *Task) bool {
	if !k.runMore() || t.state != StateReady || bits.TrailingZeros32(k.readyMask) != int(t.prio) {
		return false
	}
	if q := &k.ready[t.prio]; q.ids[q.head] != t.id {
		return false
	}
	k.pickNext()
	k.dispatch(t)
	k.inline++
	return true
}

// RunStats returns the events taken so far and how many of them a task
// took on its own coroutine, straight on from its previous event.
func (k *Kernel) RunStats() (events, inline uint64) { return k.dispatches, k.inline }

// terminates reports whether handling req ends its task — a guarded
// stack overflow, a recursive lock or a bad unlock (exit and panic are
// final requests, never system calls). Those go to the kernel side,
// which can unwind the task's coroutine.
func (k *Kernel) terminates(req *request) bool {
	switch req.kind {
	case reqStackPush:
		return req.task.stackUsed+req.bytes > k.cfg.StackSize && !k.plan.StackGuardOff
	case reqMutexLock:
		return req.mu.owner == req.task
	case reqMutexUnlock:
		return req.mu.owner != req.task
	}
	return false
}

// RunUntilIdle steps the kernel until no task is ready, the kernel
// crashes, or maxSteps is exceeded; it returns the steps taken.
func (k *Kernel) RunUntilIdle(maxSteps int) int {
	_, steps := k.Run(maxSteps, nil)
	return steps
}

// handle processes one task request and returns its cycle cost. On
// return the requesting task is in a well-defined non-running state.
func (k *Kernel) handle(req *request) clock.Cycles {
	t := req.task
	t.syscallErr = nil
	switch req.kind {
	case reqYield:
		k.enqueueBack(t)
		return CostYield

	case reqCompute:
		t.sliceUsed += req.cycles
		if t.sliceUsed >= k.cfg.Quantum {
			t.sliceUsed = 0
			k.enqueueBack(t)
		} else {
			k.enqueueFront(t)
		}
		return req.cycles

	case reqProgress:
		t.progress++
		k.emit(Event{Task: t.id, Kind: EvProgress})
		k.enqueueFront(t)
		return 1

	case reqStackPush:
		t.stackUsed += req.bytes
		if t.stackUsed > k.cfg.StackSize {
			if !k.plan.StackGuardOff {
				used := t.stackUsed
				k.releaseTask(t, "stack overflow")
				k.crash(FaultStackOverflow,
					fmt.Sprintf("task %q used %d of %d stack bytes", t.name, used, k.cfg.StackSize), t.id)
				return 2
			}
			// Unguarded overflow scribbles over the adjacent TCB.
			if n := k.neighborOf(t); n != nil {
				n.corrupted = true
			}
		}
		k.enqueueFront(t)
		return 2

	case reqStackPop:
		t.stackUsed -= req.bytes
		if t.stackUsed < 0 {
			t.stackUsed = 0
		}
		k.enqueueFront(t)
		return 2

	case reqSemWait:
		s := req.sem
		if s.count > 0 {
			s.count--
			k.enqueueFront(t)
			return CostSemOp
		}
		t.state = StateBlocked
		t.waitSem = s
		s.waiters.push(t)
		k.emitNamed(t.id, EvBlock, "sem ", s.name)
		return CostSemOp

	case reqSemSignal:
		s := req.sem
		if w := s.waiters.pop(); w != nil {
			// Direct handoff: the unit goes to w, whose pending SemWait
			// completes at its next dispatch (wake status nil).
			w.state = StateReady
			w.waitSem = nil
			k.enqueueBack(w)
			k.emitNamed(w.id, EvWake, "sem ", s.name)
		} else {
			s.count++
		}
		k.enqueueFront(t)
		return CostSemOp

	case reqMutexLock:
		m := req.mu
		switch {
		case m.owner == nil:
			m.owner = t
			k.enqueueFront(t)
		case m.owner == t:
			k.releaseTask(t, "recursive lock")
			k.crash(FaultAssert, fmt.Sprintf("task %q recursively locked %q", t.name, m.name), t.id)
		default:
			t.state = StateBlocked
			t.waitMu = m
			m.waiters.push(t)
			k.emitNamed(t.id, EvBlock, "mutex ", m.name)
		}
		return CostSemOp

	case reqMutexUnlock:
		m := req.mu
		if m.owner != t {
			owner := m.Owner()
			k.releaseTask(t, "bad unlock")
			k.crash(FaultAssert, fmt.Sprintf("task %q unlocked %q owned by %d", t.name, m.name, owner), t.id)
			return CostSemOp
		}
		if w := m.waiters.pop(); w != nil {
			m.owner = w // direct ownership transfer
			w.state = StateReady
			w.waitMu = nil
			k.enqueueBack(w)
			k.emitNamed(w.id, EvWake, "mutex ", m.name)
		} else {
			m.owner = nil
		}
		k.enqueueFront(t)
		return CostSemOp

	case reqQueueSend:
		if k.handleSend(t, req.q, req.msg) {
			k.enqueueFront(t)
		}
		return CostSemOp

	case reqQueueRecv:
		if k.handleRecv(t, req.q) {
			k.enqueueFront(t)
		}
		return CostSemOp

	case reqExit:
		k.releaseTask(t, "exit")
		return CostTaskYield

	case reqTaskPanic:
		k.releaseTask(t, "panic")
		k.crash(FaultAssert, fmt.Sprintf("task %q panicked: %s", t.name, req.detail), t.id)
		return CostTaskYield
	}
	k.crash(FaultAssert, fmt.Sprintf("unknown request kind %d", req.kind), t.id)
	return 0
}

// neighborOf returns the live task in the adjacent TCB slot (wrapping),
// the victim of an unguarded stack overflow.
func (k *Kernel) neighborOf(t *Task) *Task {
	for off := 1; off <= k.cfg.MaxTasks; off++ {
		id := TaskID((int(t.id)+off-1)%k.cfg.MaxTasks + 1)
		if id != t.id && k.tasks[id] != nil {
			return k.tasks[id]
		}
	}
	return nil
}

// leaveWait pulls a blocked task out of the wait queue holding it.
func (t *Task) leaveWait() {
	if t.waitSem != nil {
		t.waitSem.waiters.remove(t)
		t.waitSem = nil
	}
	if t.waitMu != nil {
		t.waitMu.waiters.remove(t)
		t.waitMu = nil
	}
	if t.waitSendQ != nil {
		t.waitSendQ.sendQ.remove(t)
		t.waitSendQ = nil
	}
	if t.waitRecvQ != nil {
		t.waitRecvQ.recvQ.remove(t)
		t.waitRecvQ = nil
	}
}

// releaseTask terminates a task: it unwinds the task's coroutine if the
// task is parked (a finished body has nothing left to unwind), frees its
// resources and clears its slot.
func (k *Kernel) releaseTask(t *Task, why string) {
	if t.state == StateTerminated {
		return
	}
	t.stop()
	// Remove from any queue it might occupy.
	switch t.state {
	case StateReady, StateRunning:
		k.dequeue(t)
	case StateBlocked:
		t.leaveWait()
	}
	t.state = StateTerminated
	if err := k.tcbPool.Release(t.tcbBlock); err != nil {
		k.crash(FaultDoubleFree, err.Error(), t.id)
	}
	if err := k.stackPool.Release(t.stackBlock); err != nil {
		k.crash(FaultDoubleFree, err.Error(), t.id)
	}
	k.tasks[t.id] = nil
	k.emit(Event{Task: t.id, Kind: EvExit, Detail: why})
}

// --- garbage collection -------------------------------------------------

// maybeGC runs the periodic background collection after every GCEvery
// completed services.
func (k *Kernel) maybeGC() {
	k.svcCount++
	if k.svcCount%k.cfg.GCEvery == 0 {
		k.runGC("periodic")
	}
}

// runGC performs one collection pass over both pools, honouring the
// injected GC fault.
func (k *Kernel) runGC(why string) {
	r1, l1 := k.tcbPool.Collect(k.plan.GCLeakEvery)
	r2, l2 := k.stackPool.Collect(k.plan.GCLeakEvery)
	k.emit(Event{Kind: EvGC, Detail: fmt.Sprintf("%s: reclaimed %d, leaked %d", why, r1+r2, l1+l2)})
	if k.plan.GCCorruptAfterLeaks > 0 &&
		k.tcbPool.Leaked()+k.stackPool.Leaked() >= k.plan.GCCorruptAfterLeaks {
		k.crash(FaultGCCorruption,
			fmt.Sprintf("collector leaked %d tcb / %d stack blocks and corrupted the free list",
				k.tcbPool.Leaked(), k.stackPool.Leaked()), 0)
	}
}

// Pools exposes allocator occupancy for diagnostics and tests.
func (k *Kernel) Pools() (tcb, stack *Pool) { return k.tcbPool, k.stackPool }
