package pcore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/bridge"
	"repro/internal/clock"
	"repro/internal/committee"
	"repro/internal/master"
	"repro/internal/pcore"
	"repro/internal/platform"
	"repro/internal/stats"
)

// The frozen event streams pin the kernel's complete observable
// behaviour — every OnEvent record, every service outcome and step cost,
// the service statistics, context switches and the final Snapshot — on
// a matrix of workloads, fault plans and kill paths. The digests in
// testdata/frozen-events.json were captured from the goroutine-handoff
// kernel before tasks became coroutines; a kernel that hands control to
// its tasks differently must still reproduce every one of them.
//
// After an intended behaviour change, `go test -run TestFrozenEventStreams
// -v ./internal/pcore` prints the new table for review.

const frozenFile = "testdata/frozen-events.json"

// recorder folds everything a scenario observes into one digest.
type recorder struct {
	h hash.Hash
	drive
}

// drive says how a scenario advances the kernel. The zero value steps
// one event at a time and records each step's cost, the frozen form.
// chunk 1 steps the same way without recording the steps — the
// reference for Run, whose per-event costs are not visible. A larger
// chunk advances through Kernel.Run (and Platform.StepN) in runs of up
// to chunk events; a non-zero budget also ends each kernel run once its
// events have cost that many cycles.
type drive struct {
	chunk  int
	budget clock.Cycles
}

func (r *recorder) printf(format string, args ...any) { fmt.Fprintf(r.h, format, args...) }

func (r *recorder) event(e pcore.Event) {
	r.printf("ev %d %d %s %s %q\n", e.At, e.Task, e.Kind, e.Service, e.Detail)
}

// finish records the kernel's final state, then shuts it down (the
// shutdown's own events and fault are part of the digest).
func (r *recorder) finish(k *pcore.Kernel) {
	calls, cycles := k.ServiceStats()
	svcs := make([]string, 0, len(calls))
	for s := range calls {
		svcs = append(svcs, string(s))
	}
	sort.Strings(svcs)
	for _, s := range svcs {
		r.printf("svc %s %d %d\n", s, calls[pcore.Service(s)], cycles[pcore.Service(s)])
	}
	snap := k.Snapshot()
	r.printf("snap cycles=%d ctx=%d ready=%d tcb=%d/%d/%d stack=%d\n", snap.Cycles, snap.CtxSwitches,
		snap.Ready, snap.TCBFree, snap.TCBGarbage, snap.TCBLeaked, snap.StackFree)
	for _, ts := range snap.Tasks {
		r.printf("task %+v\n", ts)
	}
	if snap.Fault != nil {
		r.printf("fault %+v\n", *snap.Fault)
	}
	r.printf("wfg %v orphans %v\n", k.WaitForGraph(), k.OrphanedWaiters())
	k.Shutdown()
	r.printf("after shutdown %+v live=%v\n", *k.Fault(), k.LiveTasks())
}

func (r *recorder) step(k *pcore.Kernel) bool {
	cost, ran := k.Step()
	r.printf("step %d %v\n", cost, ran)
	return ran
}

// steps advances the kernel by n events the way the recorder's drive
// says.
func (r *recorder) steps(k *pcore.Kernel, n int) {
	switch r.chunk {
	case 0:
		for i := 0; i < n; i++ {
			r.step(k)
		}
	case 1:
		for i := 0; i < n; i++ {
			k.Step()
		}
	default:
		for n > 0 {
			var after func(clock.Cycles) bool
			if r.budget > 0 {
				spent := clock.Cycles(0)
				after = func(cost clock.Cycles) bool {
					spent += cost
					return spent < r.budget
				}
			}
			_, taken := k.Run(min(n, r.chunk), after)
			if taken == 0 {
				return // idle: further Step calls would change nothing
			}
			n -= taken
		}
	}
}

// spawner creates tasks from a factory with increasing logical indices.
type spawner struct {
	k       *pcore.Kernel
	r       *recorder
	f       committee.Factory
	logical uint32
}

func (s *spawner) create() pcore.TaskID {
	spec := s.f(s.logical)
	s.logical++
	id, err := s.k.CreateTask(spec.Name, spec.Prio, spec.Entry)
	s.r.printf("TC %d %v\n", id, err)
	return id
}

// stress steps the kernel, issuing a random Table I service every gap
// steps — the remote-command pressure pTest applies.
func (s *spawner) stress(rng *stats.RNG, steps, gap int) {
	k, r := s.k, s.r
	for i := 0; i < steps; i += gap {
		live := k.LiveTasks()
		id := pcore.InvalidTask
		if len(live) > 0 {
			id = live[rng.Intn(len(live))]
		}
		switch rng.Intn(10) {
		case 0, 1:
			s.create()
		case 2, 3, 4:
			r.printf("TS %d %v\n", id, k.SuspendTask(id))
		case 5, 6:
			for _, l := range live {
				if ts, _ := k.TaskInfo(l); ts.State == pcore.StateSuspended {
					id = l
					break
				}
			}
			r.printf("TR %d %v\n", id, k.ResumeTask(id))
		case 7:
			p := pcore.Priority(rng.Intn(12))
			r.printf("TCH %d %d %v\n", id, p, k.ChangePriority(id, p))
		case 8:
			r.printf("TD %d %v\n", id, k.DeleteTask(id))
		case 9:
			r.printf("TY %d %v\n", id, k.TerminateTask(id))
		}
		r.steps(k, min(gap, steps-i))
	}
}

// workloadCase is one internal/app workload driven directly on a kernel.
type workloadCase struct {
	name    string
	factory func() committee.Factory
	tasks   int
}

func workloadCases() []workloadCase {
	return []workloadCase{
		{"spin", app.SpinFactory, 4},
		{"quicksort", func() committee.Factory { return app.QuicksortFactory(7) }, 6},
		{"unbounded-quicksort", app.UnboundedQuicksortFactory, 2},
		{"philosophers", func() committee.Factory { f, _ := app.Philosophers(4, 40, false); return f }, 4},
		{"ordered-philosophers", func() committee.Factory { f, _ := app.Philosophers(4, 40, true); return f }, 4},
		{"prodcons", func() committee.Factory { return app.ProducerConsumer(40) }, 2},
		{"pipeline", func() committee.Factory { return app.Pipeline(4, 30) }, 4},
		{"inversion", func() committee.Factory { return app.PriorityInversion(30) }, 3},
	}
}

// noiseFrom is a seeded ConTest-style noise hook.
func noiseFrom(seed uint64) func() bool {
	rng := stats.New(seed)
	return func() bool { return rng.Intn(3) == 0 }
}

func kernelWithRecorder(cfg pcore.Config, d drive) (*pcore.Kernel, *recorder) {
	r := &recorder{h: sha256.New(), drive: d}
	k := pcore.New(cfg)
	k.OnEvent(r.event)
	return k, r
}

// platformCase is one internal/app workload that runs through the full
// master–slave platform.
type platformCase struct {
	name  string
	build func(p *platform.Platform) error
}

func platformCases() []platformCase {
	stressMaster := func(p *platform.Platform, tasks uint32, rounds int) {
		p.Master.Spawn("stress", func(ctx *master.Ctx) {
			for round := 0; round < rounds; round++ {
				for logical := uint32(0); logical < tasks; logical++ {
					rep, err := p.Client.Call(ctx, bridge.CodeTS, logical, 0xffffffff)
					if err != nil {
						return
					}
					ctx.Compute(500)
					if rep.Status == bridge.StatusOK {
						if _, err := p.Client.Call(ctx, bridge.CodeTR, logical, 0xffffffff); err != nil {
							return
						}
					}
					ctx.Compute(300)
				}
			}
		})
	}
	return []platformCase{
		{"figure1-good", func(p *platform.Platform) error { _, _, err := app.Figure1(p, false); return err }},
		{"figure1-bad", func(p *platform.Platform) error { _, _, err := app.Figure1(p, true); return err }},
		{"jpeg", func(p *platform.Platform) error {
			if _, err := app.NewJPEGRemote(p, 2, 3, 16, 42); err != nil {
				return err
			}
			stressMaster(p, 2, 4)
			return nil
		}},
		{"streamsort", func(p *platform.Platform) error {
			if _, err := app.NewStreamSort(p, 2, 64, 5); err != nil {
				return err
			}
			stressMaster(p, 2, 5)
			return nil
		}},
	}
}

// mixedStates creates tasks parked in every state a kill can find them
// in: ready after running, blocked on a semaphore (holding a mutex), a
// mutex and both queue directions, suspended, and created but never
// dispatched. It
// returns their ids in that order.
func mixedStates(s *spawner) []pcore.TaskID {
	k, r := s.k, s.r
	sem := pcore.NewSem("gate", 0)
	mu := pcore.NewMutex("res")
	empty := pcore.NewQueue("empty", 1)
	full := pcore.NewQueue("full", 1)
	hold := pcore.NewSem("hold", 0)
	specs := []committee.CreateSpec{
		{Name: "spinner", Prio: 8, Entry: func(c *pcore.Ctx) {
			for {
				c.Progress()
				c.Yield()
			}
		}},
		{Name: "holder", Prio: 2, Entry: func(c *pcore.Ctx) {
			c.Lock(mu)
			c.SemWait(hold)
		}},
		{Name: "sem-waiter", Prio: 3, Entry: func(c *pcore.Ctx) { c.SemWait(sem) }},
		{Name: "mu-waiter", Prio: 3, Entry: func(c *pcore.Ctx) { c.Lock(mu) }},
		{Name: "receiver", Prio: 3, Entry: func(c *pcore.Ctx) { c.QueueRecv(empty) }},
		{Name: "sender", Prio: 3, Entry: func(c *pcore.Ctx) {
			c.QueueSend(full, 1)
			c.QueueSend(full, 2)
		}},
		{Name: "to-suspend", Prio: 8, Entry: func(c *pcore.Ctx) {
			for {
				c.Compute(40)
			}
		}},
	}
	var ids []pcore.TaskID
	for _, spec := range specs {
		s.f = func(uint32) committee.CreateSpec { return spec }
		ids = append(ids, s.create())
	}
	r.steps(k, 60)
	last := ids[len(ids)-1]
	r.printf("TS %d %v\n", last, k.SuspendTask(last))
	s.f = func(uint32) committee.CreateSpec {
		return committee.CreateSpec{Name: "fresh", Prio: 3, Entry: func(c *pcore.Ctx) { c.Yield() }}
	}
	return append(ids, s.create())
}

// churn creates and deletes tasks in rounds, the create/delete pressure
// of case study 1 that the GC faults feed on.
func churn(s *spawner, rounds int) {
	for i := 0; i < rounds && !s.k.Crashed(); i++ {
		for j := 0; j < 3; j++ {
			s.create()
		}
		s.r.steps(s.k, 12)
		for _, id := range s.k.LiveTasks() {
			s.r.printf("TD %d %v\n", id, s.k.DeleteTask(id))
		}
	}
}

// frozenScenarios returns every scenario's digest function by name,
// each advancing its kernel as d says.
func frozenScenarios(d drive) map[string]func() string {
	out := map[string]func() string{}
	run := func(cfg pcore.Config, f committee.Factory, drive func(*spawner)) string {
		k, r := kernelWithRecorder(cfg, d)
		s := &spawner{k: k, r: r, f: f}
		drive(s)
		r.finish(k)
		return hex.EncodeToString(r.h.Sum(nil))
	}

	for _, wc := range workloadCases() {
		for _, noise := range []bool{false, true} {
			wc, noise := wc, noise
			name := fmt.Sprintf("workload/%s/noise=%v", wc.name, noise)
			out[name] = func() string {
				cfg := pcore.Config{}
				if noise {
					cfg.Noise = noiseFrom(11)
				}
				return run(cfg, wc.factory(), func(s *spawner) {
					for i := 0; i < wc.tasks; i++ {
						s.create()
					}
					s.r.steps(s.k, 100)
					s.stress(stats.New(3), 1500, 29)
				})
			}
		}
	}

	for _, pc := range platformCases() {
		for _, noise := range []bool{false, true} {
			pc, noise := pc, noise
			name := fmt.Sprintf("platform/%s/noise=%v", pc.name, noise)
			out[name] = func() string {
				cfg := platform.Config{}
				if noise {
					cfg.Kernel.Noise = noiseFrom(13)
				}
				p, err := platform.New(cfg)
				if err != nil {
					return "error: " + err.Error()
				}
				r := &recorder{h: sha256.New()}
				p.Slave.OnEvent(r.event)
				p.Master.OnEvent(func(e master.ThreadEvent) { r.printf("mev %+v\n", e) })
				if err := pc.build(p); err != nil {
					return "error: " + err.Error()
				}
				if d.chunk > 1 {
					for n := 0; n < 60000; {
						taken, alive := p.StepN(min(d.chunk, 60000-n))
						if !alive {
							break
						}
						n += taken
					}
				} else {
					for i := 0; i < 60000 && p.Step(); i++ {
					}
				}
				r.printf("platform steps=%d now=%d master=%d switches=%d\n",
					p.Steps(), p.Now(), p.Master.Cycles(), p.Master.Switches())
				p.Master.Shutdown()
				r.finish(p.Slave)
				return hex.EncodeToString(r.h.Sum(nil))
			}
		}
	}

	spin := app.SpinFactory()
	faults := map[string]struct {
		plan  pcore.FaultPlan
		f     committee.Factory
		drive func(*spawner)
	}{
		"gc-leak-every": {pcore.FaultPlan{GCLeakEvery: 3}, spin, func(s *spawner) { churn(s, 40) }},
		"gc-corrupt-after-leaks": {pcore.FaultPlan{GCLeakEvery: 2, GCCorruptAfterLeaks: 3}, spin,
			func(s *spawner) { churn(s, 40) }},
		"drop-resume-every": {pcore.FaultPlan{DropResumeEvery: 2}, spin, func(s *spawner) {
			ids := []pcore.TaskID{s.create(), s.create(), s.create()}
			for i := 0; i < 30; i++ {
				id := ids[i%len(ids)]
				s.r.printf("TS %d %v\n", id, s.k.SuspendTask(id))
				s.r.steps(s.k, 5)
				s.r.printf("TR %d %v\n", id, s.k.ResumeTask(id))
				s.r.steps(s.k, 5)
			}
		}},
		"misplace-priority-every": {pcore.FaultPlan{MisplacePriorityEvery: 2}, spin, func(s *spawner) {
			ids := []pcore.TaskID{s.create(), s.create(), s.create()}
			for i := 0; i < 30; i++ {
				id := ids[i%len(ids)]
				p := pcore.Priority(2 + i%7)
				s.r.printf("TCH %d %d %v\n", id, p, s.k.ChangePriority(id, p))
				s.r.steps(s.k, 7)
			}
		}},
		"stack-guard-off": {pcore.FaultPlan{StackGuardOff: true}, app.UnboundedQuicksortFactory(), func(s *spawner) {
			s.create()
			s.f = spin
			s.create()
			s.create()
			s.r.steps(s.k, 3000)
			s.stress(stats.New(5), 400, 13)
		}},
	}
	for name, fc := range faults {
		fc := fc
		out["fault/"+name] = func() string { return run(pcore.Config{Faults: fc.plan}, fc.f, fc.drive) }
	}

	kills := map[string]func(*spawner){
		"delete": func(s *spawner) {
			ids := mixedStates(s)
			for i := len(ids) - 1; i >= 0; i-- {
				s.r.printf("TD %d %v\n", ids[i], s.k.DeleteTask(ids[i]))
				s.r.steps(s.k, 3)
			}
			s.r.steps(s.k, 50)
		},
		"terminate": func(s *spawner) {
			ids := mixedStates(s)
			for i := len(ids) - 1; i >= 0; i-- {
				s.r.printf("TY %d %v\n", ids[i], s.k.TerminateTask(ids[i]))
				s.r.steps(s.k, 3)
			}
			s.r.steps(s.k, 50)
		},
		"shutdown": func(s *spawner) { mixedStates(s) },
		"stack-overflow": func(s *spawner) {
			s.f = app.UnboundedQuicksortFactory()
			s.create()
			s.f = spin
			s.create()
			s.r.steps(s.k, 5000)
		},
		"recursive-lock": func(s *spawner) {
			mu := pcore.NewMutex("twice")
			s.f = func(uint32) committee.CreateSpec {
				return committee.CreateSpec{Name: "relock", Prio: 4, Entry: func(c *pcore.Ctx) {
					c.Lock(mu)
					c.Compute(10)
					c.Lock(mu)
				}}
			}
			s.create()
			s.f = spin
			s.create()
			s.r.steps(s.k, 40)
		},
		"bad-unlock": func(s *spawner) {
			mu := pcore.NewMutex("unowned")
			s.f = func(uint32) committee.CreateSpec {
				return committee.CreateSpec{Name: "unlocker", Prio: 4, Entry: func(c *pcore.Ctx) {
					c.Compute(10)
					c.Unlock(mu)
				}}
			}
			s.create()
			s.f = spin
			s.create()
			s.r.steps(s.k, 40)
		},
		"exit-and-panic": func(s *spawner) {
			s.f = func(logical uint32) committee.CreateSpec {
				return committee.CreateSpec{Name: fmt.Sprintf("ender-%d", logical), Prio: 5, Entry: func(c *pcore.Ctx) {
					c.Compute(20)
					c.Progress()
					switch logical {
					case 0:
						c.Exit()
					case 1:
						panic("boom")
					}
					c.Yield()
				}}
			}
			s.create()
			s.create()
			s.create()
			s.r.steps(s.k, 40)
		},
	}
	for name, drive := range kills {
		drive := drive
		out["kill/"+name] = func() string { return run(pcore.Config{}, spin, drive) }
	}
	return out
}

func TestFrozenEventStreams(t *testing.T) {
	scenarios := frozenScenarios(drive{})
	got := make(map[string]string, len(scenarios))
	for name, fn := range scenarios {
		got[name] = fn()
	}
	data, err := os.ReadFile(filepath.FromSlash(frozenFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, frozen %s", name, d, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: frozen scenario no longer run", name)
		}
	}
	if t.Failed() || testing.Verbose() {
		table, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests:\n%s", table)
	}
}

// The digests must not depend on anything but the scenario.
func TestFrozenScenariosAreDeterministic(t *testing.T) {
	scenarios := frozenScenarios(drive{})
	for _, name := range []string{"workload/philosophers/noise=true", "platform/jpeg/noise=true", "kill/delete"} {
		if a, b := scenarios[name](), scenarios[name](); a != b {
			t.Errorf("%s: %s then %s", name, a, b)
		}
	}
}

// Kernel.Run must be indistinguishable from the Step loop it replaces:
// every scenario driven through runs of 2, 7 and 64 events, with and
// without a cycle budget, leaves the same event stream, service
// statistics and final snapshot as stepping one event at a time. The
// platform scenarios, driven through Platform.StepN, must reproduce
// their frozen digests exactly.
func TestRunMatchesStepLoop(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(frozenFile))
	if err != nil {
		t.Fatal(err)
	}
	var frozen map[string]string
	if err := json.Unmarshal(data, &frozen); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for name, fn := range frozenScenarios(drive{chunk: 1}) {
		want[name] = fn()
		if strings.HasPrefix(name, "platform/") {
			want[name] = frozen[name]
		}
	}
	for _, d := range []drive{{chunk: 2}, {chunk: 7}, {chunk: 64}, {chunk: 64, budget: 100}} {
		for name, fn := range frozenScenarios(d) {
			if got := fn(); got != want[name] {
				t.Errorf("%s with runs of %d, budget %d: digest %s, want %s", name, d.chunk, d.budget, got, want[name])
			}
		}
	}
}
