package contest

import (
	"testing"

	"repro/internal/app"
	"repro/internal/committee"
	"repro/internal/detector"
	"repro/internal/pcore"
)

func TestCleanWorkloadNoBug(t *testing.T) {
	out, err := Run(Config{
		Seed:    1,
		Tasks:   4,
		Factory: app.QuicksortFactory(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bug != nil {
		t.Fatalf("clean workload reported %v", out.Bug)
	}
	if out.Yields == 0 {
		t.Fatal("noise never fired")
	}
}

func TestNoiseFindsPhilosophersDeadlock(t *testing.T) {
	// Noise injection CAN find the dining-philosophers deadlock: forced
	// yields between the two lock acquisitions interleave the tasks.
	// Scan seeds; at least one of the first dozen should hit it.
	factory, _ := app.Philosophers(3, 2000, false)
	res, err := RunCampaign(Config{
		Seed:    0,
		NoiseP:  0.3,
		Tasks:   3,
		Factory: factory,
		Kernel:  pcore.Config{Quantum: 1 << 30},
	}, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) == 0 {
		t.Fatal("noise injection never found the deadlock in 12 trials")
	}
	if res.Bugs[0].Kind != detector.BugDeadlock {
		t.Fatalf("found %v", res.Bugs[0].Kind)
	}
}

func TestNoiseCannotFindGCChurnCrash(t *testing.T) {
	// The GC crash needs create/delete churn that only remote commands
	// produce; noise alone starts each task once and never deletes, so
	// the fault stays hidden — the contrast that motivates pTest's
	// pattern-driven stress.
	res, err := RunCampaign(Config{
		Seed:    0,
		NoiseP:  0.3,
		Tasks:   8,
		Factory: app.QuicksortFactory(3),
		Kernel:  pcore.Config{GCEvery: 4, Faults: pcore.FaultPlan{GCLeakEvery: 2}},
	}, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Bugs {
		if b.Kind == detector.BugCrash {
			t.Fatalf("noise run crashed the kernel: %v", b)
		}
	}
}

func TestReproducibleBySeed(t *testing.T) {
	factory, _ := app.Philosophers(3, 500, false)
	run := func() (bool, uint64) {
		out, err := Run(Config{Seed: 7, NoiseP: 0.3, Tasks: 3, Factory: factory,
			Kernel: pcore.Config{Quantum: 1 << 30}})
		if err != nil {
			t.Fatal(err)
		}
		return out.Bug != nil, out.Steps
	}
	// Note: factory shares fork state across runs only within one call
	// of Philosophers; rebuild per run for a fair determinism check.
	f1, _ := app.Philosophers(3, 500, false)
	o1, err := Run(Config{Seed: 7, NoiseP: 0.3, Tasks: 3, Factory: f1,
		Kernel: pcore.Config{Quantum: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := app.Philosophers(3, 500, false)
	o2, err := Run(Config{Seed: 7, NoiseP: 0.3, Tasks: 3, Factory: f2,
		Kernel: pcore.Config{Quantum: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if (o1.Bug != nil) != (o2.Bug != nil) || o1.Steps != o2.Steps || o1.Duration != o2.Duration {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", o1.Bug, o1.Steps, o2.Bug, o2.Steps)
	}
	_ = run
}

func TestDefaults(t *testing.T) {
	out, err := Run(Config{Factory: app.SpinFactory(), MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("nil outcome")
	}
}

// BenchmarkContestTrial runs one noise-injection trial of eight dining
// philosophers eating 4000 rounds to completion — the shape of the
// contest cells that set a paper-sized sweep's wall time.
func BenchmarkContestTrial(b *testing.B) {
	cfg := Config{
		Seed: 1, Tasks: 8, NoiseP: 0.2,
		NewFactory: func() committee.Factory { f, _ := app.Philosophers(8, 4000, false); return f },
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
