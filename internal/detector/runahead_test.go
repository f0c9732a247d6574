package detector_test

import (
	"fmt"
	"testing"

	"repro/internal/contest"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/pattern"
	"repro/internal/pfa"
	"repro/internal/tool"
	"repro/internal/workload"
)

// trialCase is one tool trial (or short campaign) rendered to the text
// that must not change: the bug report, when and after how many steps
// it was found, and the trial's duration and noise decisions. runAhead
// marks the cases that leave the slave running alone for long
// stretches, which must be taken in multi-event runs.
type trialCase struct {
	name     string
	run      func(t *testing.T) string
	runAhead bool
}

func bugText(b *detector.Report) string {
	if b == nil {
		return "no bug"
	}
	return fmt.Sprintf("%s at=%d", b, b.At)
}

func trialCases() []trialCase {
	workloads := []workload.Spec{
		{Name: "philosophers", Rounds: 300},
		{Name: "ordered-philosophers", Rounds: 300},
		{Name: "inversion", HogBursts: 300},
		{Name: "quicksort", Seed: 3},
	}
	var cases []trialCase
	for _, w := range workloads {
		w := w
		for seed := uint64(1); seed <= 3; seed++ {
			seed := seed
			cases = append(cases, trialCase{name: fmt.Sprintf("contest/%s/seed=%d", w.Name, seed), runAhead: true, run: func(t *testing.T) string {
				nf, err := w.NewFactory(8)
				if err != nil {
					t.Fatal(err)
				}
				out, err := contest.Run(contest.Config{Seed: seed, Tasks: 8, NewFactory: nf,
					Kernel: w.Kernel(), MaxSteps: 200_000})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%s steps=%d duration=%d yields=%d",
					bugText(out.Bug), out.Steps, out.Duration, out.Yields)
			}})
			cases = append(cases, trialCase{name: fmt.Sprintf("adaptive/%s/seed=%d", w.Name, seed), run: func(t *testing.T) string {
				nf, err := w.NewFactory(4)
				if err != nil {
					t.Fatal(err)
				}
				out, err := core.AdaptiveTest(core.Config{RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(),
					N: 4, S: 12, Op: pattern.OpRoundRobin, Seed: seed, NewFactory: nf,
					Kernel: w.Kernel(), MaxSteps: 200_000})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%s steps=%d duration=%d", bugText(out.Bug), out.Steps, out.Duration)
			}})
		}
		for _, spec := range []tool.Spec{{Name: "pct", Depth: 3}, {Name: "chess", MaxSchedules: 8}} {
			spec := spec
			// The pct driver stays busy until the quicksort tasks are done;
			// on the other workloads the tasks outlive it.
			runAhead := spec.Name == "pct" && w.Name != "quicksort"
			cases = append(cases, trialCase{name: fmt.Sprintf("%s/%s", spec.Name, w.Name), runAhead: runAhead, run: func(t *testing.T) string {
				tl, ok := tool.Lookup(spec.Name)
				if !ok {
					t.Fatalf("tool %s not registered", spec.Name)
				}
				nf, err := w.NewFactory(4)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := tl.Run(tool.Env{RE: pfa.PCoreRE, PD: pfa.PCoreDistribution(), N: 4, S: 12,
					Op: pattern.OpRoundRobin, Seed: 7, Trials: 3, KeepGoing: true, MaxSteps: 200_000,
					Parallelism: 1, Kernel: w.Kernel(), NewFactory: nf, Spec: tl.Defaulted(spec)})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%+v", sum)
			}})
		}
	}
	return cases
}

// RunUntil advances the platform in StepN chunks; every trial outcome
// must equal the one the step-at-a-time reference loop gives. The
// contest and pct trials must have taken slave events in multi-event
// runs, or the comparison would not exercise them.
func TestRunUntilMatchesStepwiseReference(t *testing.T) {
	for _, tc := range trialCases() {
		var want, got string
		detector.Stepwise(func() { want = tc.run(t) })
		inline := detector.CountInline(func() { got = tc.run(t) })
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
		if tc.runAhead && inline == 0 {
			t.Errorf("%s: no slave event ran straight on from the one before", tc.name)
		}
	}
}
