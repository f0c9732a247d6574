// Package detector implements pTest's bug detector: it tracks the
// progress of test activities on the co-simulated platform, detects the
// potential system failures the paper targets — slave crashes, deadlock,
// hangs and starvation — and assembles the diagnostic dump that lets a
// user reproduce the bug (§II-B, "Bug detector").
package detector

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/pcore"
	"repro/internal/platform"
	"repro/internal/recording"
)

// BugKind classifies a detected failure.
type BugKind string

// The failure classes the detector distinguishes.
const (
	// BugCrash is a slave kernel fault (the paper's first case study).
	BugCrash BugKind = "crash"
	// BugDeadlock is a cycle in the slave's wait-for graph (the paper's
	// second case study).
	BugDeadlock BugKind = "deadlock"
	// BugHang is a quiescent platform with outstanding work: commands in
	// flight that can never complete, or tasks blocked on resources nobody
	// can release (orphaned locks, unsignalled semaphores, lost wakeups).
	BugHang BugKind = "hang"
	// BugLivelock is sustained scheduling activity with no application
	// progress ("processes ... stay in the same state for a period of
	// time", §II-A).
	BugLivelock BugKind = "livelock"
	// BugStarvation is one task making no progress over a long window
	// while others advance.
	BugStarvation BugKind = "starvation"
	// BugMasterPanic is a contained master-thread crash.
	BugMasterPanic BugKind = "master-panic"
)

// Report is the detector's diagnostic record for one discovered failure.
type Report struct {
	Kind     BugKind
	Detail   string
	At       clock.Cycles
	Fault    *pcore.KernelFault // set for BugCrash
	Cycle    []pcore.TaskID     // set for BugDeadlock: the wait cycle
	Snapshot pcore.Snapshot
	Journal  recording.View // Definition 2 records for reproduction; String renders them
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("[%s] at t=%d: %s", r.Kind, r.At, r.Detail)
}

// Options tunes the detector.
type Options struct {
	// ProgressWindow is the span of virtual cycles without any
	// application progress after which an active platform is declared
	// livelocked, and a single non-progressing task starved
	// (default 200000).
	ProgressWindow clock.Cycles
	// CheckEvery runs the checks every n platform steps (default 64).
	CheckEvery int
}

func (o Options) withDefaults() Options {
	if o.ProgressWindow == 0 {
		o.ProgressWindow = 200000
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 64
	}
	return o
}

// Detector monitors one platform run.
type Detector struct {
	p       *platform.Platform
	journal *recording.Journal
	opts    Options

	lastTotalProgress uint64
	lastProgressAt    clock.Cycles
	perTaskProgress   map[pcore.TaskID]uint64
	perTaskStampedAt  map[pcore.TaskID]clock.Cycles
	steps             int
	recordsChecked    uint64 // journal entries already consistency-checked
}

// New creates a detector for the platform; journal may be nil.
func New(p *platform.Platform, journal *recording.Journal, opts Options) *Detector {
	return &Detector{
		p:                p,
		journal:          journal,
		opts:             opts.withDefaults(),
		perTaskProgress:  map[pcore.TaskID]uint64{},
		perTaskStampedAt: map[pcore.TaskID]clock.Cycles{},
	}
}

func (d *Detector) report(kind BugKind, detail string) *Report {
	r := &Report{
		Kind:     kind,
		Detail:   detail,
		At:       d.p.Now(),
		Fault:    d.p.Slave.Fault(),
		Snapshot: d.p.Slave.Snapshot(),
	}
	if d.journal != nil {
		r.Journal = d.journal.View()
	}
	return r
}

// Check runs every failure check against the current platform state and
// returns the first failure found, or nil.
func (d *Detector) Check() *Report {
	// 1. Slave crash.
	if f := d.p.Slave.Fault(); f != nil && f.Reason != "shutdown" {
		return d.report(BugCrash, f.Error())
	}
	// 2. Master thread panic.
	if p := d.p.Master.LastPanic(); p != nil {
		return d.report(BugMasterPanic,
			fmt.Sprintf("master thread %d panicked: %s", p.Thread, p.Detail))
	}
	// 3. Deadlock: cycle in the wait-for graph. The graph is built only
	// to describe a cycle known to exist.
	if d.p.Slave.HasWaitCycle() {
		cycle := FindCycle(d.p.Slave.WaitForGraph())
		r := d.report(BugDeadlock, describeCycle(d.p.Slave, cycle))
		r.Cycle = cycle
		return r
	}
	// 3b. Orphaned locks: tasks blocked on mutexes whose owner was
	// deleted — the wait can never be satisfied.
	if orphans := d.p.Slave.OrphanedWaiters(); len(orphans) > 0 {
		return d.report(BugHang,
			fmt.Sprintf("task(s) %v blocked on mutexes owned by terminated tasks", orphans))
	}
	// 4. Record consistency: the Definition 2 state records expose
	// command/effect mismatches — a task_resume that completed while the
	// task stayed suspended is a lost wakeup in the command path. A
	// record inconsistency is conclusive whatever the platform state.
	if r := d.recordCheck(); r != nil {
		return r
	}
	// 5. Quiescent with outstanding work: nothing can ever move again.
	if d.p.Quiescent() {
		if n := d.p.Client.InFlight(); n > 0 {
			return d.report(BugHang,
				fmt.Sprintf("platform quiescent with %d remote command(s) in flight", n))
		}
		if blocked := blockedTasks(d.p.Slave); len(blocked) > 0 {
			return d.report(BugHang,
				fmt.Sprintf("platform quiescent with blocked tasks: %s", blocked))
		}
		return nil // legitimately done
	}
	// 6. Progress-window checks: livelock and starvation.
	return d.progressCheck()
}

// recordCheck scans journal entries appended since the last check for
// state records that contradict their command's semantics.
func (d *Detector) recordCheck() *Report {
	if d.journal == nil {
		return nil
	}
	for e := range d.journal.After(d.recordsChecked) {
		d.recordsChecked = e.Seq
		rec := e.Record
		if rec.QM == "issue:TR" && rec.QS == pcore.StateSuspended.String() {
			return d.report(BugHang, fmt.Sprintf(
				"lost wakeup: record %s shows task_resume completed for logical task %d while the task stayed suspended",
				rec, e.Task))
		}
		if rec.QM == "issue:TS" && rec.QS == pcore.StateRunning.String() {
			return d.report(BugHang, fmt.Sprintf(
				"lost suspend: record %s shows task_suspend completed for logical task %d while the task kept running",
				rec, e.Task))
		}
	}
	return nil
}

// progressCheck watches application progress marks over virtual time.
func (d *Detector) progressCheck() *Report {
	now := d.p.Now()
	var total uint64
	live := 0
	for t := range d.p.Slave.Tasks() {
		live++
		total += t.Progress()
		prev, seen := d.perTaskProgress[t.ID()]
		if !seen || t.Progress() > prev {
			d.perTaskProgress[t.ID()] = t.Progress()
			d.perTaskStampedAt[t.ID()] = now
		}
	}
	if total > d.lastTotalProgress || d.lastProgressAt == 0 {
		d.lastTotalProgress = total
		d.lastProgressAt = now
	}
	window := d.opts.ProgressWindow
	// Livelock: nothing progressed across the window although the
	// platform keeps running.
	if live > 0 && now-d.lastProgressAt > window {
		return d.report(BugLivelock,
			fmt.Sprintf("no task progressed for %d cycles while the system stayed active", now-d.lastProgressAt))
	}
	// Starvation: a runnable or blocked task is stuck across the window
	// while the system as a whole advanced after its last progress.
	for t := range d.p.Slave.Tasks() {
		if st := t.State(); st != pcore.StateReady && st != pcore.StateBlocked && st != pcore.StateRunning {
			continue // suspended tasks are intentionally stopped
		}
		stamped := d.perTaskStampedAt[t.ID()]
		if now-stamped > window && d.lastProgressAt > stamped {
			return d.report(BugStarvation,
				fmt.Sprintf("task %d (%s, %s) made no progress for %d cycles while others advanced",
					t.ID(), t.Name(), t.State(), now-stamped))
		}
	}
	return nil
}

// Run drives the platform until a failure is detected, the platform goes
// quiescent, or maxSteps elapse. It returns the failure report or nil on
// a clean finish.
func (d *Detector) Run(maxSteps int) *Report {
	return d.RunUntil(maxSteps, nil)
}

// RunUntil is Run with an additional stop predicate, evaluated at every
// check interval: when done() reports true the run ends with one final
// check. The campaign runner uses it to stop once the committer has
// issued the whole pattern and residual slave activity has settled,
// instead of stepping infinite workloads to the step budget.
func (d *Detector) RunUntil(maxSteps int, done func() bool) *Report {
	return runUntil(d, maxSteps, done)
}

// runUntil is RunUntil's body; the tests swap in a step-at-a-time
// reference to check it against.
var runUntil = (*Detector).runUntil

func (d *Detector) runUntil(maxSteps int, done func() bool) *Report {
	every := d.opts.CheckEvery
	for i := 0; i < maxSteps; {
		// Advance to the next check boundary (or the step budget) in one
		// StepN chunk; it ends early only when the platform goes quiet.
		n, alive := d.p.StepN(min(maxSteps-i, every-d.steps%every))
		i += n
		d.steps += n
		if d.steps%every == 0 || !alive {
			if r := d.Check(); r != nil {
				return r
			}
			if done != nil && done() {
				return d.Check()
			}
		}
		if !alive {
			return nil
		}
	}
	// Step budget exhausted: one final check.
	return d.Check()
}

// FindCycle finds a cycle in a wait-for graph and returns it as a task
// sequence (first element repeated implicitly), or nil. Deterministic:
// nodes are explored in ascending id order.
func FindCycle(g map[pcore.TaskID][]pcore.TaskID) []pcore.TaskID {
	nodes := make([]pcore.TaskID, 0, len(g))
	for n := range g {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[pcore.TaskID]int{}
	var stack []pcore.TaskID
	var cycle []pcore.TaskID

	var dfs func(n pcore.TaskID) bool
	dfs = func(n pcore.TaskID) bool {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range g[n] {
			switch color[m] {
			case gray:
				// Found: extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == m {
						cycle = append([]pcore.TaskID{}, stack[i:]...)
						return true
					}
				}
				cycle = []pcore.TaskID{m, n}
				return true
			case white:
				if dfs(m) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	for _, n := range nodes {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

func describeCycle(k *pcore.Kernel, cycle []pcore.TaskID) string {
	parts := make([]string, 0, len(cycle)+1)
	for _, id := range cycle {
		name := "?"
		wait := ""
		if info, ok := k.TaskInfo(id); ok {
			name = info.Name
			wait = info.WaitingOn
		}
		parts = append(parts, fmt.Sprintf("task %d (%s) waits on %s", id, name, wait))
	}
	return "deadlock cycle: " + strings.Join(parts, " -> ")
}

func blockedTasks(k *pcore.Kernel) string {
	var parts []string
	for _, ts := range k.Snapshot().Tasks {
		if ts.State == pcore.StateBlocked {
			parts = append(parts, fmt.Sprintf("%d(%s on %s)", ts.ID, ts.Name, ts.WaitingOn))
		}
	}
	return strings.Join(parts, ", ")
}
