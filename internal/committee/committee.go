// Package committee implements the slave-side agent of pTest: it receives
// remote commands from the committer over the bridge, maps logical task
// indices to live pCore tasks, executes the requested kernel service and
// posts the result back. It corresponds to the "Committee" box of the
// paper's Figure 2.
package committee

import (
	"repro/internal/bridge"
	"repro/internal/pcore"
)

// CreateSpec tells the committee how to instantiate a logical task on TC.
type CreateSpec struct {
	Name  string
	Prio  pcore.Priority
	Entry func(*pcore.Ctx)
}

// Factory supplies the workload body for a logical task index. The
// stress-test factories live in package app.
type Factory func(logical uint32) CreateSpec

// Executed describes one served command, for the recording layer.
type Executed struct {
	Req    bridge.Request
	Status bridge.Status
	Task   pcore.TaskID
	State  pcore.State
}

type pendingReply struct {
	slot  int
	reply bridge.Reply
}

// Committee is the slave-side command dispatcher.
type Committee struct {
	hub      *bridge.Hub
	kern     *pcore.Kernel
	factory  Factory
	registry map[uint32]pcore.TaskID
	pending  []pendingReply
	onExec   func(Executed)

	served uint64
	errors uint64
}

// New creates a committee bound to a kernel and a workload factory.
func New(hub *bridge.Hub, kern *pcore.Kernel, factory Factory) *Committee {
	return &Committee{
		hub:      hub,
		kern:     kern,
		factory:  factory,
		registry: map[uint32]pcore.TaskID{},
	}
}

// OnExecuted registers a hook invoked after every served command.
func (c *Committee) OnExecuted(fn func(Executed)) { c.onExec = fn }

// SetFactory replaces the workload factory. Scenario builders that need
// the platform (shared memory addresses, etc.) construct their factory
// after the platform exists and install it here before issuing TC.
func (c *Committee) SetFactory(f Factory) { c.factory = f }

// Stats returns the lifetime served/error counters.
func (c *Committee) Stats() (served, errors uint64) { return c.served, c.errors }

// Idle reports whether Poll has nothing to do: no reply waits for room
// in the reply mailbox and no command is queued.
func (c *Committee) Idle() bool {
	return len(c.pending) == 0 && c.hub.SoC.Boxes.ArmToDspCmd.Len() == 0
}

// Task returns the live pCore task bound to a logical index.
func (c *Committee) Task(logical uint32) (pcore.TaskID, bool) {
	id, ok := c.registry[logical]
	return id, ok
}

// Registry returns a copy of the logical→task binding table.
func (c *Committee) Registry() map[uint32]pcore.TaskID {
	out := make(map[uint32]pcore.TaskID, len(c.registry))
	for k, v := range c.registry {
		out[k] = v
	}
	return out
}

// Poll serves queued remote commands: it flushes any reply that was
// blocked on a full mailbox, then executes commands from the request
// mailbox until it is empty or a reply cannot be posted. A crashed
// kernel silently stops serving — the slave is dead, and the master's
// only signal is the missing reply, exactly as on hardware. Poll returns
// the number of commands executed.
func (c *Committee) Poll() int {
	// Flush pending replies first to preserve completion order.
	for len(c.pending) > 0 {
		p := c.pending[0]
		ok, err := c.hub.PostReply(p.slot, p.reply)
		if err != nil || !ok {
			return 0
		}
		c.pending = c.pending[1:]
	}
	if c.kern.Crashed() {
		return 0
	}
	n := 0
	for {
		msg, ok := c.hub.SoC.Boxes.ArmToDspCmd.Recv()
		if !ok {
			return n
		}
		slot := int(msg.Arg())
		req, err := c.hub.ReadRequest(slot)
		if err != nil {
			continue
		}
		reply := c.execute(req)
		n++
		if c.kern.Crashed() {
			// The service took the kernel down: the slave never completes
			// the command. Drop the reply on the floor.
			return n
		}
		posted, err := c.hub.PostReply(slot, reply)
		if err == nil && !posted {
			c.pending = append(c.pending, pendingReply{slot: slot, reply: reply})
			return n
		}
	}
}

// execute runs one command against the kernel and builds its reply.
func (c *Committee) execute(req bridge.Request) bridge.Reply {
	rep := bridge.Reply{Token: req.Token, Status: bridge.StatusOK}
	logical := req.Arg0

	fail := func(st bridge.Status) bridge.Reply {
		rep.Status = st
		c.errors++
		c.emit(req, rep, pcore.InvalidTask, pcore.StateFree)
		return rep
	}

	svc, ok := req.Op.Service()
	if !ok {
		return fail(bridge.StatusBadRequest)
	}

	var id pcore.TaskID
	if svc != pcore.SvcTaskCreate {
		id, ok = c.registry[logical]
		if !ok {
			return fail(bridge.StatusUnknownTask)
		}
	}

	var err error
	switch svc {
	case pcore.SvcTaskCreate:
		if _, exists := c.registry[logical]; exists {
			return fail(bridge.StatusServiceError)
		}
		spec := c.factory(logical)
		prio := spec.Prio
		if req.Arg1 != 0xffffffff {
			prio = pcore.Priority(req.Arg1)
		}
		id, err = c.kern.CreateTask(spec.Name, prio, spec.Entry)
		if err == nil {
			c.registry[logical] = id
		}
	case pcore.SvcTaskDelete:
		err = c.kern.DeleteTask(id)
		if err == nil {
			delete(c.registry, logical)
		}
	case pcore.SvcTaskSuspend:
		err = c.kern.SuspendTask(id)
	case pcore.SvcTaskResume:
		err = c.kern.ResumeTask(id)
	case pcore.SvcTaskChanprio:
		err = c.kern.ChangePriority(id, pcore.Priority(req.Arg1))
	case pcore.SvcTaskYield:
		err = c.kern.TerminateTask(id)
		if err == nil {
			delete(c.registry, logical)
		}
	}

	state := pcore.StateFree
	if info, live := c.kern.TaskInfo(id); live {
		state = info.State
	} else if err == nil && (svc == pcore.SvcTaskDelete || svc == pcore.SvcTaskYield) {
		state = pcore.StateTerminated
	}

	switch e := err.(type) {
	case nil:
		c.served++
	case *pcore.ServiceError:
		rep.Status = bridge.StatusServiceError
		c.errors++
		_ = e
	case *pcore.KernelFault:
		rep.Status = bridge.StatusCrashed
		c.errors++
	default:
		rep.Status = bridge.StatusServiceError
		c.errors++
	}
	rep.Value = uint32(state)
	rep.Aux = uint32(id)
	c.emit(req, rep, id, state)
	return rep
}

func (c *Committee) emit(req bridge.Request, rep bridge.Reply, id pcore.TaskID, st pcore.State) {
	if c.onExec != nil {
		c.onExec(Executed{Req: req, Status: rep.Status, Task: id, State: st})
	}
}
