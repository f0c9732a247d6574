// Package committer implements pTest's master-side command issuer: a
// master thread that walks the merged test pattern and issues each entry
// as a remote command over the bridge, recording a Definition 2 state
// record per command. It corresponds to the "Committer" box of the
// paper's Figure 2.
package committer

import (
	"repro/internal/bridge"
	"repro/internal/clock"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/recording"
)

// PriorityPolicy picks the priority argument for TC and TCH commands of a
// logical task (the PFA alphabet carries no arguments, so the committer
// supplies them deterministically).
type PriorityPolicy func(task, seq int) pcore.Priority

// DefaultPriorityPolicy assigns each logical task the unique priority
// 2+task for TC (the paper forks each task "with a unique priority") and
// rotates within a band for TCH.
func DefaultPriorityPolicy(task, seq int) pcore.Priority {
	return pcore.Priority(2 + (task+seq)%(pcore.NumPriorities-2)) // keep 0,1 for system use
}

// Result is the outcome of one issued command.
type Result struct {
	Index     int // position in the merged pattern
	Entry     pattern.Entry
	Status    bridge.Status
	TaskState pcore.State
	TaskID    pcore.TaskID
	IssuedAt  clock.Cycles
	DoneAt    clock.Cycles
}

// Committer issues a merged pattern over a bridge client.
type Committer struct {
	client  *bridge.Client
	merged  pattern.Merged
	perTask [][]string
	labels  map[string]string // symbol → QM label "issue:<symbol>"
	policy  PriorityPolicy
	journal *recording.Journal
	now     func() clock.Cycles

	// Gap is the master-side administrative delay (cycles) between
	// consecutive commands. It sets the stress density: a small gap
	// bombards the slave faster than its tasks can run; a larger gap
	// lets the slave execute between perturbations. Default 10.
	Gap int

	Results  []Result
	Finished bool
	Aborted  bool // stopped early on a crashed/mute slave
}

// New creates a committer for the merged pattern. journal may be nil to
// skip state recording; now supplies platform virtual time for records
// (nil uses zero).
func New(client *bridge.Client, merged pattern.Merged, policy PriorityPolicy,
	journal *recording.Journal, now func() clock.Cycles) *Committer {
	if policy == nil {
		policy = DefaultPriorityPolicy
	}
	if now == nil {
		now = func() clock.Cycles { return 0 }
	}
	labels := map[string]string{}
	for _, e := range merged.Entries {
		if _, ok := labels[e.Symbol]; !ok {
			labels[e.Symbol] = "issue:" + e.Symbol
		}
	}
	return &Committer{
		client:  client,
		merged:  merged,
		perTask: merged.PerTask(),
		labels:  labels,
		policy:  policy,
		journal: journal,
		now:     now,
		Gap:     10,
		// One Result per pattern entry: size the slice once instead of
		// growing it through the whole run.
		Results: make([]Result, 0, merged.Len()),
	}
}

// Merged returns the pattern being issued.
func (c *Committer) Merged() pattern.Merged { return c.merged }

// Progress returns the number of commands completed so far.
func (c *Committer) Progress() int { return len(c.Results) }

// ThreadBody is the master-thread entry: issue every entry of the merged
// pattern in order, blocking on each reply. If the slave dies the RPC
// never returns and the thread stays parked — the bug detector owns the
// timeout; the platform's shutdown unwinds the thread.
func (c *Committer) ThreadBody(ctx *master.Ctx) {
	for i, e := range c.merged.Entries {
		code, ok := bridge.CodeOf(e.Symbol)
		if !ok {
			// Unknown symbol in the pattern: record and skip.
			c.Results = append(c.Results, Result{
				Index: i, Entry: e, Status: bridge.StatusBadRequest, IssuedAt: c.now(),
			})
			continue
		}
		arg1 := uint32(0xffffffff)
		if code == bridge.CodeTC || code == bridge.CodeTCH {
			arg1 = uint32(c.policy(e.Task, e.Seq))
		}
		issued := c.now()
		rep, err := c.client.Call(ctx, code, uint32(e.Task), arg1)
		if err != nil {
			c.Aborted = true
			return
		}
		res := Result{
			Index:     i,
			Entry:     e,
			Status:    rep.Status,
			TaskState: pcore.State(rep.Value),
			TaskID:    pcore.TaskID(rep.Aux),
			IssuedAt:  issued,
			DoneAt:    c.now(),
		}
		c.Results = append(c.Results, res)
		c.record(res)
		// The administrative delay between commands sets the stress
		// density; see Gap.
		ctx.Compute(c.Gap)
	}
	c.Finished = true
}

// record appends the Definition 2 five-tuple for a completed command.
// It allocates nothing: the label is built once per symbol, the state
// name is a constant, and TP and δS share the immutable per-task
// pattern.
func (c *Committer) record(res Result) {
	if c.journal == nil {
		return
	}
	tp := c.perTask[res.Entry.Task]
	sn := res.Entry.Seq + 1 // 1-based, as in Figure 4
	rec := recording.Record{
		QM:  c.labels[res.Entry.Symbol],
		QS:  res.TaskState.String(),
		TP:  tp,
		SN:  sn,
		Sub: recording.Remaining(tp, sn),
	}
	c.journal.Append(uint64(res.DoneAt), res.Entry.Task, rec)
}

// StatusCounts aggregates result statuses, for reports.
func (c *Committer) StatusCounts() map[bridge.Status]int {
	out := make(map[bridge.Status]int, 4) // a run rarely sees more than a few distinct statuses
	for _, r := range c.Results {
		out[r.Status]++
	}
	return out
}
