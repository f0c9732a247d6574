// Package master simulates the master-side operating system — the Linux
// instance on the OMAP's ARM core that hosts the remote control threads
// and pTest's committer. It provides cooperative threads under a
// time-sharing round-robin scheduler. Like the pcore slave kernel's
// tasks, each thread runs as an iter.Pull coroutine that yields back to
// the scheduler at every system call: exactly one of them runs at a
// time, so co-simulation stays reproducible.
package master

import (
	"fmt"
	"iter"

	"repro/internal/clock"
)

// ThreadID identifies a master thread; valid ids start at 1.
type ThreadID uint16

// InvalidThread is the zero ThreadID.
const InvalidThread ThreadID = 0

// ThreadState is a thread's scheduling state.
type ThreadState uint8

const (
	// TReady means runnable.
	TReady ThreadState = iota
	// TRunning means currently dispatched.
	TRunning
	// TParked means blocked until Unpark (e.g. waiting for an RPC reply).
	TParked
	// TDone means finished.
	TDone
)

// String names the thread state.
func (s ThreadState) String() string {
	switch s {
	case TReady:
		return "ready"
	case TRunning:
		return "running"
	case TParked:
		return "parked"
	case TDone:
		return "done"
	}
	return fmt.Sprintf("ThreadState(%d)", uint8(s))
}

// Virtual-cycle costs of master-side operations.
const (
	CostSpawn   clock.Cycles = 200 // fork a control thread
	CostYieldM  clock.Cycles = 30
	CostParkM   clock.Cycles = 40
	CostSwitchM clock.Cycles = 50 // Linux context switch is pricier than pCore's
)

type mreqKind uint8

const (
	mreqYield mreqKind = iota
	mreqCompute
	mreqPark
	mreqExit
	mreqPanic
)

type mrequest struct {
	kind   mreqKind
	th     *Thread
	cycles clock.Cycles
	reason string
	detail string
}

// masterKilled unwinds a thread coroutine that Shutdown stopped.
type masterKilled struct{}

// Thread is one simulated master thread.
type Thread struct {
	id       ThreadID
	name     string
	state    ThreadState
	entry    func(*Ctx)
	parkedOn string

	next  func() (mrequest, bool) // resume until the next system call
	stop  func()                  // unwind a parked coroutine
	yield func(mrequest) bool     // the coroutine's side of next
	final mrequest                // exit or panic, left by run on its way out
}

// ID returns the thread id.
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// ParkedOn returns the park reason while parked ("" otherwise).
func (t *Thread) ParkedOn() string { return t.parkedOn }

// run is the coroutine body hosting the thread's entry function. A
// return leaves an exit in t.final and a panic leaves mreqPanic; a kill
// (stop while parked) unwinds silently. The recover must stay in here,
// because iter.Pull re-raises a coroutine's panic in the scheduler.
func (t *Thread) run(yield func(mrequest) bool) {
	t.yield = yield
	defer func() {
		switch r := recover().(type) {
		case nil:
			t.final = mrequest{kind: mreqExit, th: t, reason: "returned"}
		case masterKilled:
		default:
			t.final = mrequest{kind: mreqPanic, th: t, detail: fmt.Sprint(r)}
		}
	}()
	t.entry(&Ctx{th: t})
}

// resume runs the thread until its next system call; once the body has
// finished, that is the final request it left behind.
func (t *Thread) resume() mrequest {
	if req, ok := t.next(); ok {
		return req
	}
	return t.final
}

// syscall yields the request to the scheduler and returns when the
// thread is next dispatched. A false yield means Shutdown stopped it.
func (t *Thread) syscall(req mrequest) {
	if !t.yield(req) {
		panic(masterKilled{})
	}
}

// Ctx is the thread-side API.
type Ctx struct{ th *Thread }

// ID returns the calling thread's id.
func (c *Ctx) ID() ThreadID { return c.th.id }

// Name returns the calling thread's name.
func (c *Ctx) Name() string { return c.th.name }

// Yield gives up the processor until the scheduler comes around again.
func (c *Ctx) Yield() { c.th.syscall(mrequest{kind: mreqYield, th: c.th}) }

// Compute charges a burst of computation cycles.
func (c *Ctx) Compute(cycles int) {
	if cycles <= 0 {
		return
	}
	c.th.syscall(mrequest{kind: mreqCompute, th: c.th, cycles: clock.Cycles(cycles)})
}

// Park blocks the thread until OS.Unpark; reason appears in diagnostics.
func (c *Ctx) Park(reason string) {
	c.th.syscall(mrequest{kind: mreqPark, th: c.th, reason: reason})
}

// OS is the master operating system instance.
type OS struct {
	threads  []*Thread // index id-1
	runq     []ThreadID
	cycles   clock.Cycles
	lastRun  ThreadID
	panicked *ThreadPanic
	onEvent  func(ThreadEvent)
	switches uint64
}

// ThreadPanic records a master thread panic (contained, like a Linux
// process crash: the OS survives, the thread is gone).
type ThreadPanic struct {
	Thread ThreadID
	Detail string
}

// ThreadEvent traces master-side scheduling for the recorder.
type ThreadEvent struct {
	At     clock.Cycles
	Thread ThreadID
	What   string
}

// New boots the master OS.
func New() *OS {
	return &OS{}
}

// OnEvent registers the trace hook.
func (o *OS) OnEvent(fn func(ThreadEvent)) { o.onEvent = fn }

func (o *OS) emit(th ThreadID, what string) {
	if o.onEvent != nil {
		o.onEvent(ThreadEvent{At: o.cycles, Thread: th, What: what})
	}
}

// Cycles returns master-side virtual time consumed.
func (o *OS) Cycles() clock.Cycles { return o.cycles }

// LastPanic returns the most recent contained thread panic, if any.
func (o *OS) LastPanic() *ThreadPanic { return o.panicked }

// Spawn creates a thread and makes it ready.
func (o *OS) Spawn(name string, entry func(*Ctx)) ThreadID {
	t := &Thread{
		id:    ThreadID(len(o.threads) + 1),
		name:  name,
		entry: entry,
	}
	t.next, t.stop = iter.Pull(t.run)
	o.threads = append(o.threads, t)
	t.state = TReady
	o.runq = append(o.runq, t.id)
	o.cycles += CostSpawn
	o.emit(t.id, "spawn")
	return t.id
}

// Thread returns the thread with the given id, or nil.
func (o *OS) Thread(id ThreadID) *Thread {
	if id == InvalidThread || int(id) > len(o.threads) {
		return nil
	}
	return o.threads[id-1]
}

// Threads returns all threads in spawn order.
func (o *OS) Threads() []*Thread { return append([]*Thread{}, o.threads...) }

// Ready reports whether any thread is runnable.
func (o *OS) Ready() bool { return len(o.runq) > 0 }

// Unpark makes a parked thread runnable again; it is a no-op for threads
// in any other state (a wakeup for an already-running thread is benign).
func (o *OS) Unpark(id ThreadID) {
	t := o.Thread(id)
	if t == nil || t.state != TParked {
		return
	}
	t.state = TReady
	t.parkedOn = ""
	o.runq = append(o.runq, t.id)
	o.emit(id, "unpark")
}

// Step dispatches the next ready thread for one event (run to its next
// system call). It returns the cycle cost and whether a thread ran.
func (o *OS) Step() (clock.Cycles, bool) {
	if len(o.runq) == 0 {
		return 0, false
	}
	id := o.runq[0]
	o.runq = o.runq[1:]
	t := o.threads[id-1]
	var cost clock.Cycles
	if o.lastRun != id {
		cost += CostSwitchM
		o.switches++
	}
	o.lastRun = id
	t.state = TRunning

	req := t.resume()
	switch req.kind {
	case mreqYield:
		cost += CostYieldM
		t.state = TReady
		o.runq = append(o.runq, t.id)
	case mreqCompute:
		cost += req.cycles
		t.state = TReady
		o.runq = append(o.runq, t.id)
	case mreqPark:
		cost += CostParkM
		t.state = TParked
		t.parkedOn = req.reason
		o.emit(t.id, "park:"+req.reason)
	case mreqExit:
		t.state = TDone
		o.emit(t.id, "exit:"+req.reason)
	case mreqPanic:
		t.state = TDone
		o.panicked = &ThreadPanic{Thread: t.id, Detail: req.detail}
		o.emit(t.id, "panic")
	}
	o.cycles += cost
	return cost, true
}

// RunUntilIdle steps until no thread is ready or maxSteps is reached.
func (o *OS) RunUntilIdle(maxSteps int) int {
	n := 0
	for n < maxSteps {
		if _, ran := o.Step(); !ran {
			break
		}
		n++
	}
	return n
}

// Shutdown kills all live threads, unwinding their coroutines.
func (o *OS) Shutdown() {
	for _, t := range o.threads {
		if t.state == TDone {
			continue
		}
		if t.state == TRunning {
			// Cannot happen between steps; guard anyway.
			continue
		}
		t.stop()
		t.state = TDone
	}
	o.runq = nil
}

// Switches returns the context-switch count.
func (o *OS) Switches() uint64 { return o.switches }
