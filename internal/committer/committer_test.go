package committer

import (
	"strings"
	"testing"

	"repro/internal/bridge"
	"repro/internal/committee"
	"repro/internal/hw"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/recording"
)

// pump advances the standalone master + committee world until the
// committer thread finishes or the budget runs out. Unlike the platform
// package this drives the pieces manually, exercising the committer in
// isolation.
func pump(t *testing.T, os *master.OS, cmte *committee.Committee, client *bridge.Client, kern *pcore.Kernel, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		cmte.Poll()
		kern.RunUntilIdle(4)
		client.PumpReplies()
		if _, ran := os.Step(); !ran {
			if cmte.Poll() == 0 && client.InFlight() == 0 && !os.Ready() {
				return
			}
		}
	}
}

type world struct {
	os     *master.OS
	kern   *pcore.Kernel
	client *bridge.Client
	cmte   *committee.Committee
}

func newWorld(t *testing.T) *world {
	t.Helper()
	soc := hw.New(hw.Config{MailboxLatency: 1})
	hub, err := bridge.NewHub(soc, 0)
	if err != nil {
		t.Fatal(err)
	}
	kern := pcore.New(pcore.Config{})
	t.Cleanup(kern.Shutdown)
	os := master.New()
	t.Cleanup(os.Shutdown)
	client := bridge.NewClient(hub, os)
	cmte := committee.New(hub, kern, func(logical uint32) committee.CreateSpec {
		return committee.CreateSpec{Name: "spin", Prio: 5, Entry: func(c *pcore.Ctx) {
			for {
				c.Yield()
			}
		}}
	})
	// Interrupt-free manual pumping: deliver doorbells immediately.
	soc.Clock.Schedule(0, func() {})
	t.Cleanup(func() { soc.Clock.Drain(1000000) })
	// Mailbox latency events must fire for IRQs; but Poll/PumpReplies read
	// the FIFOs directly, so no IRQ wiring is needed here.
	return &world{os: os, kern: kern, client: client, cmte: cmte}
}

func mustMerge(t *testing.T, sources [][]string, op pattern.Op) pattern.Merged {
	t.Helper()
	m, err := pattern.Merge(sources, op, nil, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCommitterIssuesAllCommands(t *testing.T) {
	w := newWorld(t)
	merged := mustMerge(t, [][]string{{"TC", "TS", "TR", "TD"}}, pattern.OpSequential)
	j := recording.NewJournal(0)
	cmt := New(w.client, merged, nil, j, nil)
	w.os.Spawn("committer", cmt.ThreadBody)
	pump(t, w.os, w.cmte, w.client, w.kern, 10000)
	if !cmt.Finished {
		t.Fatalf("finished=%v progress=%d", cmt.Finished, cmt.Progress())
	}
	if len(cmt.Results) != 4 {
		t.Fatalf("results %d", len(cmt.Results))
	}
	for i, r := range cmt.Results {
		if r.Status != bridge.StatusOK {
			t.Fatalf("result %d: %v", i, r.Status)
		}
	}
	if j.Len() != 4 {
		t.Fatalf("journal %d", j.Len())
	}
}

func TestCommitterRecordsDefinition2Fields(t *testing.T) {
	w := newWorld(t)
	merged := mustMerge(t, [][]string{{"TC", "TD"}, {"TC", "TY"}}, pattern.OpRoundRobin)
	j := recording.NewJournal(0)
	cmt := New(w.client, merged, nil, j, nil)
	w.os.Spawn("committer", cmt.ThreadBody)
	pump(t, w.os, w.cmte, w.client, w.kern, 10000)
	if !cmt.Finished {
		t.Fatal("not finished")
	}
	entries := j.Entries()
	if len(entries) != 4 {
		t.Fatalf("entries %d", len(entries))
	}
	first := entries[0].Record
	if first.QM != "issue:TC" {
		t.Fatalf("QM %q", first.QM)
	}
	if first.SN != 1 {
		t.Fatalf("SN %d", first.SN)
	}
	if strings.Join(first.TP, " ") != "TC TD" {
		t.Fatalf("TP %v", first.TP)
	}
	if strings.Join(first.Sub, " ") != "TD" {
		t.Fatalf("Sub %v", first.Sub)
	}
	if first.QS == "" {
		t.Fatal("QS empty")
	}
}

func TestCommitterUnknownSymbolSkipped(t *testing.T) {
	w := newWorld(t)
	merged := mustMerge(t, [][]string{{"TC", "BOGUS", "TD"}}, pattern.OpSequential)
	cmt := New(w.client, merged, nil, nil, nil)
	w.os.Spawn("committer", cmt.ThreadBody)
	pump(t, w.os, w.cmte, w.client, w.kern, 10000)
	if !cmt.Finished {
		t.Fatal("not finished")
	}
	counts := cmt.StatusCounts()
	if counts[bridge.StatusBadRequest] != 1 || counts[bridge.StatusOK] != 2 {
		t.Fatalf("counts %v", counts)
	}
}

func TestDefaultPriorityPolicyUnique(t *testing.T) {
	seen := map[pcore.Priority]bool{}
	for task := 0; task < 8; task++ {
		p := DefaultPriorityPolicy(task, 0)
		if p < 2 || p >= pcore.NumPriorities {
			t.Fatalf("priority %d out of band", p)
		}
		if seen[p] {
			t.Fatalf("priority %d reused within first 8 tasks", p)
		}
		seen[p] = true
	}
}

func TestCustomPolicyApplied(t *testing.T) {
	w := newWorld(t)
	merged := mustMerge(t, [][]string{{"TC"}}, pattern.OpSequential)
	policy := func(task, seq int) pcore.Priority { return 11 }
	cmt := New(w.client, merged, policy, nil, nil)
	w.os.Spawn("committer", cmt.ThreadBody)
	pump(t, w.os, w.cmte, w.client, w.kern, 10000)
	if !cmt.Finished || len(cmt.Results) != 1 {
		t.Fatal("incomplete")
	}
	info, ok := w.kern.TaskInfo(cmt.Results[0].TaskID)
	if !ok || info.Prio != 11 {
		t.Fatalf("prio %d", info.Prio)
	}
}

// Recording a completed command must not allocate once the journal is at
// its bound: the label, the state name, TP and δS are all shared.
func TestRecordDoesNotAllocate(t *testing.T) {
	merged := mustMerge(t, [][]string{{"TC", "TCH", "TS", "TR", "TD"}, {"TC", "TY"}}, pattern.OpRoundRobin)
	j := recording.NewJournal(64)
	c := New(nil, merged, nil, j, nil)
	// One run records the whole pattern, so a single allocation on any
	// record shows in the per-run average.
	recordAll := func() {
		for i, e := range merged.Entries {
			c.record(Result{Index: i, Entry: e, TaskState: pcore.StateReady, DoneAt: 42})
		}
	}
	for j.Dropped() == 0 {
		recordAll()
	}
	if allocs := testing.AllocsPerRun(1000, recordAll); allocs != 0 {
		t.Fatalf("recording %d commands allocates %v times", merged.Len(), allocs)
	}
	last, _ := j.Last()
	if last.Record.QM != "issue:TD" || last.Record.SN != 5 || last.Record.Sub != nil {
		t.Fatalf("last record %v", last.Record)
	}
}
