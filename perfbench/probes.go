package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/stats"
	"repro/internal/suite"
)

// Layer probes for the traced run. Each drives one module through its
// public functions and times the calls from here.

const (
	stepProbeTasks  = 4
	stepProbeYields = 200_000
)

// pcoreStepNS is a kernel-only probe: stepProbeTasks tasks that each
// yield stepProbeYields times, created with CreateTask and driven by
// RunUntilIdle. It returns host nanoseconds per kernel step.
func pcoreStepNS() (float64, error) {
	k := pcore.New(pcore.Config{})
	defer k.Shutdown()
	for i := 0; i < stepProbeTasks; i++ {
		_, err := k.CreateTask(fmt.Sprintf("yield%d", i), 8, func(c *pcore.Ctx) {
			for j := 0; j < stepProbeYields; j++ {
				c.Yield()
			}
		})
		if err != nil {
			return 0, fmt.Errorf("pcore probe: %w", err)
		}
	}
	want := stepProbeTasks * stepProbeYields
	start := time.Now()
	steps := k.RunUntilIdle(4 * want)
	elapsed := time.Since(start)
	if steps < want || !k.Idle() {
		return 0, fmt.Errorf("pcore probe: %d steps, want at least %d and an idle kernel", steps, want)
	}
	return float64(elapsed.Nanoseconds()) / float64(steps), nil
}

// trialProbe holds one decomposed adaptive trial's timings.
type trialProbe struct {
	compile, generate, merge, run time.Duration
	steps                         uint64
}

// adaptiveTrials decomposes trial 0 of every plain adaptive cell of the
// shortcells plan into Algorithm 1's steps — PFA construction, pattern
// generation, merging, and the co-simulated execution — timing each.
// The decomposition replays core.AdaptiveTest's RNG splits, and each
// trial's outcome must equal core.AdaptiveTest's for the same config;
// a mismatch is an error, so the numbers always time the real
// algorithm.
func adaptiveTrials(seed int64) ([]trialProbe, error) {
	data, err := specJSON("shortcells", seed, 0)
	if err != nil {
		return nil, err
	}
	spec, err := suite.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if spec.Dedup {
		return nil, fmt.Errorf("trial probe: dedup specs are not decomposed")
	}
	var out []trialProbe
	for _, c := range spec.Expand() {
		if c.Tool.Name != "adaptive" || c.Tool.Refine {
			continue
		}
		newFactory, err := c.Workload.NewFactory(c.Point.N)
		if err != nil {
			return nil, err
		}
		// The config the adaptive tool builds for the cell's first trial.
		cfg := core.Config{
			RE: spec.RE, PD: c.PD.Distribution(),
			N: c.Point.N, S: c.Point.S, Op: c.Op, Seed: c.Seed,
			Dedup: spec.Dedup, CommandGap: spec.CommandGap,
			Kernel: c.Workload.Kernel(), NewFactory: newFactory, MaxSteps: spec.MaxSteps,
		}
		p, err := decomposeTrial(cfg)
		if err != nil {
			return nil, fmt.Errorf("trial probe %s: %w", c.ID, err)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trial probe: no adaptive cells in the shortcells plan")
	}
	return out, nil
}

func decomposeTrial(cfg core.Config) (trialProbe, error) {
	var p trialProbe
	t := time.Now()
	if _, err := pfa.FromRegex(cfg.RE, cfg.PD); err != nil {
		return p, err
	}
	p.compile = time.Since(t)
	machine, err := pfa.Compile(cfg.RE, cfg.PD)
	if err != nil {
		return p, err
	}

	rng := stats.New(cfg.Seed)
	genRNG := rng.Split()
	t = time.Now()
	pats, err := machine.GenerateSet(genRNG, cfg.N, cfg.S, pfa.DefaultGenOptions())
	p.generate = time.Since(t)
	if err != nil {
		return p, err
	}
	sources := make([][]string, len(pats))
	for i, pat := range pats {
		sources[i] = pat.Symbols
	}
	t = time.Now()
	merged, err := pattern.Merge(sources, cfg.Op, rng.Split(), cfg.Merge)
	p.merge = time.Since(t)
	if err != nil {
		return p, err
	}
	t = time.Now()
	got, err := core.RunMergedWith(cfg, machine, merged)
	p.run = time.Since(t)
	if err != nil {
		return p, err
	}
	p.steps = got.Steps

	want, err := core.AdaptiveTest(cfg)
	if err != nil {
		return p, err
	}
	if d := outcomeDiff(want, got); d != "" {
		return p, fmt.Errorf("decomposed trial differs from core.AdaptiveTest: %s", d)
	}
	return p, nil
}

// outcomeDiff names the first of (bug, commands, steps, cycles) that
// differs between two outcomes, or returns "".
func outcomeDiff(want, got *core.Outcome) string {
	bug := func(o *core.Outcome) string {
		if o.Bug == nil {
			return "none"
		}
		return o.Bug.String()
	}
	switch {
	case bug(want) != bug(got):
		return fmt.Sprintf("bug %q vs %q", bug(want), bug(got))
	case want.CommandsIssued != got.CommandsIssued:
		return fmt.Sprintf("commands %d vs %d", want.CommandsIssued, got.CommandsIssued)
	case want.Steps != got.Steps:
		return fmt.Sprintf("steps %d vs %d", want.Steps, got.Steps)
	case want.Duration != got.Duration:
		return fmt.Sprintf("cycles %d vs %d", want.Duration, got.Duration)
	}
	return ""
}
