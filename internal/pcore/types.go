// Package pcore simulates the pCore microkernel — the runtime system the
// paper stress-tests on the C55x DSP core. The simulation reproduces the
// properties pTest observes: up to 16 concurrent tasks with unique
// priorities and 512-byte stacks, a preemptive priority-based scheduler,
// the six task-management services of Table I, counting semaphores and
// mutexes, and a block-pool allocator whose garbage collector is the
// fault site of the paper's first case study.
//
// Determinism: each task body runs as an iter.Pull coroutine. The kernel
// resumes the task, and the task yields control back when it gives up
// the processor (while it keeps it inside a Kernel.Run, it serves its
// own kernel calls), so exactly one of them executes at any instant and
// the Go scheduler never influences simulated behaviour. All simulated faults
// are captured as *KernelFault values; they never escape as Go panics.
package pcore

import (
	"fmt"

	"repro/internal/clock"
)

// TaskID identifies a task slot; valid ids are 1..MaxTasks.
type TaskID uint16

// InvalidTask is the zero TaskID, never assigned to a task.
const InvalidTask TaskID = 0

// Priority is a task priority; numerically lower is more urgent
// (priority 0 is the highest), matching pCore's convention that the
// scheduler "always schedules the task with highest priority to run".
type Priority uint8

// NumPriorities is the number of distinct priority levels.
const NumPriorities = 32

// State is a task's scheduling state.
type State uint8

const (
	// StateFree marks an unused TCB slot.
	StateFree State = iota
	// StateReady means runnable, queued at its priority level.
	StateReady
	// StateRunning means currently dispatched.
	StateRunning
	// StateSuspended means stopped by task_suspend until task_resume.
	StateSuspended
	// StateBlocked means waiting on a semaphore or mutex.
	StateBlocked
	// StateTerminated means exited or deleted; TCB awaits garbage
	// collection.
	StateTerminated
)

// String returns the state name used in records and dumps.
func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateBlocked:
		return "blocked"
	case StateTerminated:
		return "terminated"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Service identifies one of pCore's task-management kernel services
// (Table I), plus the internal operations the simulator also meters.
type Service string

// The Table I services and their paper abbreviations.
const (
	SvcTaskCreate   Service = "TC"  // task_create
	SvcTaskDelete   Service = "TD"  // task_delete
	SvcTaskSuspend  Service = "TS"  // task_suspend
	SvcTaskResume   Service = "TR"  // task_resume
	SvcTaskChanprio Service = "TCH" // task_chanprio
	SvcTaskYield    Service = "TY"  // task_yield: terminate the running task
)

// TableIServices lists the six services in Table I order.
func TableIServices() []Service {
	return []Service{SvcTaskCreate, SvcTaskDelete, SvcTaskSuspend,
		SvcTaskResume, SvcTaskChanprio, SvcTaskYield}
}

// ServiceDescription returns Table I's description column.
func ServiceDescription(s Service) string {
	switch s {
	case SvcTaskCreate:
		return "Create a task"
	case SvcTaskDelete:
		return "Delete a task"
	case SvcTaskSuspend:
		return "Suspend a task"
	case SvcTaskResume:
		return "Resume a task"
	case SvcTaskChanprio:
		return "Change the priority of a task"
	case SvcTaskYield:
		return "Terminate the current running task"
	}
	return ""
}

// Virtual-cycle costs charged per kernel operation, loosely calibrated to
// a small RTOS on a 192 MHz VLIW DSP. Only relative magnitudes matter to
// the reproduction; the Table I bench reports these through the live
// kernel path.
const (
	CostTaskCreate   clock.Cycles = 120
	CostTaskDelete   clock.Cycles = 80
	CostTaskSuspend  clock.Cycles = 40
	CostTaskResume   clock.Cycles = 40
	CostTaskChanprio clock.Cycles = 30
	CostTaskYield    clock.Cycles = 60
	CostYield        clock.Cycles = 20
	CostSemOp        clock.Cycles = 25
	CostContextSw    clock.Cycles = 15 // pCore's multiset context switch
	CostIdle         clock.Cycles = 10
)

// KernelFault describes a simulated kernel crash (the slave-system
// failures the bug detector watches for). Once faulted, the kernel
// rejects all further operations with ErrCrashed.
type KernelFault struct {
	Reason string       // short machine-readable cause
	Detail string       // human-readable context
	Task   TaskID       // task involved, if any
	At     clock.Cycles // kernel-local cycle count at crash
}

func (f *KernelFault) Error() string {
	return fmt.Sprintf("pcore: kernel fault %q at cycle %d (task %d): %s",
		f.Reason, f.At, f.Task, f.Detail)
}

// Fault reasons produced by the simulator.
const (
	FaultPoolExhausted = "pool-exhausted" // allocation failed after GC
	FaultGCCorruption  = "gc-corruption"  // injected GC failure destroyed the free list
	FaultStackOverflow = "stack-overflow" // task exceeded its 512-byte stack
	FaultAssert        = "kernel-assert"  // internal invariant violated
	FaultDoubleFree    = "double-free"    // block freed twice
)

// Errors returned by kernel services (API-level failures, distinct from
// kernel faults: the kernel survives them).
type ServiceError struct {
	Service Service
	Task    TaskID
	Msg     string
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("pcore: %s(task %d): %s", e.Service, e.Task, e.Msg)
}

// Event is a kernel trace event, consumed by the recording layer.
type Event struct {
	At      clock.Cycles // kernel-local cycle count
	Task    TaskID
	Kind    EventKind
	Service Service // set for service events
	Detail  string
}

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvService is the completion of a kernel service call.
	EvService EventKind = iota
	// EvDispatch is a context switch to a task.
	EvDispatch
	// EvBlock is a task entering a wait state.
	EvBlock
	// EvWake is a task leaving a wait state.
	EvWake
	// EvExit is a task terminating.
	EvExit
	// EvProgress is an application-level progress mark (Task.Progress).
	EvProgress
	// EvFault is a kernel crash.
	EvFault
	// EvGC is a garbage-collection pass.
	EvGC
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvService:
		return "service"
	case EvDispatch:
		return "dispatch"
	case EvBlock:
		return "block"
	case EvWake:
		return "wake"
	case EvExit:
		return "exit"
	case EvProgress:
		return "progress"
	case EvFault:
		return "fault"
	case EvGC:
		return "gc"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}
