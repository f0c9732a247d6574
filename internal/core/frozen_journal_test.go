package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/app"
	"repro/internal/chess"
	"repro/internal/committee"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
)

// The frozen journals pin everything a user reads about a failure's
// Definition 2 state records: the bug report's journal text, its
// one-line String, each trial's Journal.Dump and JSON encoding, and the
// campaign summary's FirstBug. The digests in
// testdata/frozen-journals.json were captured from the eager-dump
// detector; a journal that records or renders differently must still
// reproduce every one of them.
//
// After an intended behaviour change, `go test -run TestFrozenJournals
// -v ./internal/core` prints the new table for review.

const frozenJournalsFile = "testdata/frozen-journals.json"

// journalDigest folds the user-visible journal outputs of a run into
// one digest.
type journalDigest struct{ h hash.Hash }

func newJournalDigest() *journalDigest { return &journalDigest{h: sha256.New()} }

func (d *journalDigest) printf(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *journalDigest) bug(r *detector.Report) {
	if r == nil {
		d.printf("bug: none\n")
		return
	}
	d.printf("bug: %s\njournal:\n%s\n", r.String(), fmt.Sprint(r.Journal))
}

func (d *journalDigest) outcome(out *core.Outcome) {
	d.bug(out.Bug)
	d.printf("dump:\n%s\n", out.Journal.Dump())
	b, err := json.Marshal(out.Journal)
	d.printf("json: %s %v\n", b, err)
	d.printf("len=%d dropped=%d\n", out.Journal.Len(), out.Journal.Dropped())
}

func (d *journalDigest) campaign(res *core.CampaignResult) string {
	for i, out := range res.Outcomes {
		d.printf("trial %d\n", i+1)
		d.outcome(out)
	}
	d.printf("first bug: %q at %d\n", res.Summary().FirstBug, res.FirstBugTrial)
	return d.sum()
}

func (d *journalDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// journalScenario runs one configuration and returns its digest.
type journalScenario func(t *testing.T) string

func campaignScenario(cfg core.Config, trials int) journalScenario {
	return func(t *testing.T) string {
		res, err := core.RunCampaign(core.CampaignConfig{Base: cfg, Trials: trials, KeepGoing: true})
		if err != nil {
			t.Fatal(err)
		}
		return newJournalDigest().campaign(res)
	}
}

func frozenJournalScenarios() map[string]journalScenario {
	workloads := map[string]func() committee.Factory{
		"spin":                 app.SpinFactory,
		"quicksort":            func() committee.Factory { return app.QuicksortFactory(7) },
		"unbounded-quicksort":  app.UnboundedQuicksortFactory,
		"philosophers":         func() committee.Factory { f, _ := app.Philosophers(4, 2000, false); return f },
		"ordered-philosophers": func() committee.Factory { f, _ := app.Philosophers(4, 2000, true); return f },
		"prodcons":             func() committee.Factory { return app.ProducerConsumer(64) },
		"pipeline":             func() committee.Factory { return app.Pipeline(3, 64) },
		"inversion":            func() committee.Factory { return app.PriorityInversion(200) },
	}
	out := map[string]journalScenario{}
	for name, factory := range workloads {
		for _, op := range []pattern.Op{pattern.OpRoundRobin, pattern.OpRandom} {
			out["workload/"+name+"/"+op.String()] = campaignScenario(core.Config{
				RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
				N: 4, S: 12, Op: op, Seed: 11,
				NewFactory: factory,
			}, 3)
		}
	}
	out["clean"] = campaignScenario(core.Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 3, S: 10, Op: pattern.OpRoundRobin, Seed: 5,
		Factory: app.SpinFactory(),
	}, 2)
	out["gc-leak-crash"] = campaignScenario(core.Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 16, S: 24, Op: pattern.OpRoundRobin, Seed: 3,
		Factory: app.QuicksortFactory(99),
		Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
	}, 2)
	out["drop-resume-lost-wakeup"] = campaignScenario(core.Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 4, S: 16, Op: pattern.OpRoundRobin, Seed: 1,
		Factory: app.SpinFactory(),
		Kernel:  pcore.Config{Faults: pcore.FaultPlan{DropResumeEvery: 2}},
	}, 3)
	out["misplace-priority-starvation"] = campaignScenario(core.Config{
		RE: pfa.PCoreRE,
		N:  3, S: 10, Op: pattern.OpRoundRobin, Seed: 1,
		CommandGap: 3000,
		Factory:    app.SpinFactory(),
		Kernel:     pcore.Config{Faults: pcore.FaultPlan{MisplacePriorityEvery: 1}},
		Detector:   detector.Options{CheckEvery: 16, ProgressWindow: 20000},
	}, 3)
	out["deadlock"] = func(t *testing.T) string {
		factory, _ := app.Philosophers(3, 100000, false)
		return campaignScenario(core.Config{
			RE: "TC (TS TR)+ TD$",
			PD: pfa.Distribution{
				pfa.StartLabel: {"TC": 1},
				"TC":           {"TS": 1},
				"TS":           {"TR": 1},
				"TR":           {"TS": 1, "TD": 0},
			},
			N: 3, S: 41, Op: pattern.OpCyclic, Seed: 0,
			CommandGap: 100,
			Factory:    factory,
			Kernel:     pcore.Config{Quantum: 1 << 30},
		}, 1)(t)
	}
	out["chess-lost-resume"] = func(t *testing.T) string {
		res, err := chess.Explore(chess.Config{
			Run: core.Config{
				RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
				Factory: app.SpinFactory(),
				Kernel:  pcore.Config{Faults: pcore.FaultPlan{DropResumeEvery: 3}},
			},
			Sources:         [][]string{{"TC", "TS", "TR", "TS", "TR"}, {"TC", "TS", "TR"}},
			PreemptionBound: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := newJournalDigest()
		for _, r := range res.Bugs {
			d.bug(r)
		}
		d.printf("first bug: %q at %d\n", res.Summary().FirstBug, res.FirstBugAt)
		return d.sum()
	}
	out["journal-over-limit"] = campaignScenario(core.Config{
		RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
		N: 16, S: 24, Op: pattern.OpRandom, Seed: 3,
		Factory:      app.QuicksortFactory(99),
		Kernel:       pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 5}},
		JournalLimit: 40,
	}, 3)
	return out
}

func TestFrozenJournals(t *testing.T) {
	scenarios := frozenJournalScenarios()
	got := make(map[string]string, len(scenarios))
	for name, fn := range scenarios {
		got[name] = fn(t)
	}
	data, err := os.ReadFile(filepath.FromSlash(frozenJournalsFile))
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
