// ptest run: one campaign against the simulated OMAP-like platform —
// Algorithm 1 with configuration (RE, n, s, op), a slave workload,
// optional fault injection, and the bug detector. The reproduction's
// equivalent of running pTest on the board. -tool selects any
// registered tool by name: the adaptive default keeps the original
// direct campaign path (per-trial console output, -save-repro,
// -dump-journal); every other tool runs as a one-cell suite, sharing
// cell identities with `ptest suite` and ptestd.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/committee"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
	"repro/internal/tool"
	"repro/internal/workload"
)

func parsePD(spec string) (pfa.Distribution, error) {
	d := pfa.Distribution{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		colon := strings.Index(item, ":")
		eq := strings.LastIndex(item, "=")
		if colon < 0 || eq < colon {
			return nil, fmt.Errorf("bad PD entry %q (want from:symbol=prob)", item)
		}
		p, err := strconv.ParseFloat(item[eq+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad probability in %q: %v", item, err)
		}
		from, sym := item[:colon], item[colon+1:eq]
		if d[from] == nil {
			d[from] = map[string]float64{}
		}
		d[from][sym] = p
	}
	return d, nil
}

// newWorkloadFactory builds the per-trial factory constructor shared by
// run and replay, routing through the internal/workload registry.
// Every trial gets a freshly built factory:
// workloads with shared state (philosopher forks, producer/consumer
// buffers) must not leak it across trials — and must not share it
// between concurrently simulated platforms when -parallel > 1.
func newWorkloadFactory(workload string, n, rounds int, seed uint64) (func() committee.Factory, error) {
	nf, err := suite.WorkloadSpec{Name: workload, Seed: seed, Rounds: rounds}.NewFactory(n)
	if err != nil {
		return nil, usagef("%v", err)
	}
	return nf, nil
}

func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("ptest run", flag.ContinueOnError)
	var (
		re         = fs.String("re", "", "service regular expression")
		pdSpec     = fs.String("pd", "", "probability distribution: from:symbol=prob,... ('^' = start)")
		usePcore   = fs.Bool("pcore", false, "use the paper's expression (2) + Figure 5 distribution")
		toolName   = fs.String("tool", "adaptive", "testing tool: "+tool.NamesHint()+" (non-adaptive tools run as a one-cell suite with the tool's default knobs)")
		n          = fs.Int("n", 4, "number of test patterns (logical tasks)")
		s          = fs.Int("s", 12, "pattern size")
		opName     = fs.String("op", "roundrobin", "merge op: roundrobin|random|cyclic|priority|sequential")
		seed       = fs.Uint64("seed", 1, "base seed")
		trials     = fs.Int("trials", 1, "campaign trials (seed increments per trial)")
		parallel   = fs.Int("parallel", 1, "trial workers: 1 = sequential, 0 = one per CPU (results identical either way)")
		keepGoing  = fs.Bool("keep-going", false, "do not stop the campaign at the first bug")
		dedup      = fs.Bool("dedup", false, "discard replicated patterns before merging")
		gap        = fs.Int("gap", 0, "inter-command gap in cycles (stress density)")
		workloadF  = fs.String("workload", "spin", "slave workload: "+workload.NamesHint())
		rounds     = fs.Int("rounds", suite.DefaultRounds, "philosopher eating rounds")
		quantum    = fs.Int("quantum", 0, "slave quantum in cycles")
		gcLeak     = fs.Int("gc-leak-every", 0, "arm the GC leak fault")
		dropTR     = fs.Int("drop-resume-every", 0, "arm the lost-wakeup fault")
		misprio    = fs.Int("misplace-prio-every", 0, "arm the priority-misplacement fault")
		jsonOut    = fs.Bool("json", false, "print the campaign summary as JSON instead of text")
		dumpJ      = fs.Bool("dump-journal", false, "print the Definition 2 record journal of the failing run")
		saveRepro  = fs.String("save-repro", "", "write a reproduction file for the first failing run")
		replayF    = fs.String("replay", "", "re-execute a reproduction file instead of generating patterns")
		storeDir   = fs.String("store", "", "content-addressed result store directory: execute as a one-cell suite, skipping cells already computed by run/suite/ptestd (campaign seeds derive from the cell identity, not -seed directly)")
		storeURL   = fs.String("store-url", "", "remote result store: a ptestd base URL whose cell cache this run shares; comma-separate several URLs for a sharded hub tier (mutually exclusive with -store)")
		storeMem   = fs.Int("store-mem", 4096, "result-store in-memory LRU entries")
		storeBatch = fs.Int("store-batch", 16, "coalesce remote store writes into batches of this many cells (0 = one PUT per cell; -store-url only)")
		apiKey     = apiKeyFlag(fs)
		profiles   = addProfileFlags(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	stopProfiles, err := profiles.start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()

	if *replayF != "" {
		return runReplay(*replayF, *rounds)
	}
	tl, ok := tool.Lookup(*toolName)
	if !ok {
		return usagef("run: unknown tool %q (want %s)", *toolName, tool.NamesHint())
	}
	direct := tl.Name() == "adaptive" && *storeDir == "" && *storeURL == ""
	if !direct && (*saveRepro != "" || *dumpJ) {
		// The one-cell-suite path (and cached cells) carries only the
		// campaign summary, not per-trial outcomes — it could not honor
		// either flag.
		return usagef("run: -save-repro/-dump-journal require the direct adaptive path (no -store, no non-adaptive -tool)")
	}

	expr, pd := *re, pfa.Distribution(nil)
	if *usePcore {
		expr, pd = pfa.PCoreRE, pfa.PCoreDistribution()
	}
	if expr == "" && (direct || tl.Axes().S) {
		// Pattern-generating tools need the service expression; pure
		// scheduling perturbers (contest, pct) let the spec default it.
		return usagef("provide -re or -pcore")
	}
	if *re != "" && !direct && !tl.Axes().S {
		// An expression the tool never reads still sits at the spec level
		// of the cell-identity hash: accepting it would store a second,
		// behaviorally identical cell under a different key. (-pcore is
		// fine — it resolves to the spec's default expression.)
		return usagef("run: -re has no effect on tool %q (it generates no patterns)", tl.Name())
	}
	if *pdSpec != "" {
		var err error
		pd, err = parsePD(*pdSpec)
		if err != nil {
			return usagef("%v", err)
		}
	}
	op, err := pattern.ParseOp(*opName)
	if err != nil {
		return usagef("%v", err)
	}
	newFactory, err := newWorkloadFactory(*workloadF, *n, *rounds, *seed)
	if err != nil {
		return err
	}

	kcfg := pcore.Config{
		Faults: pcore.FaultPlan{
			GCLeakEvery:           *gcLeak,
			DropResumeEvery:       *dropTR,
			MisplacePriorityEvery: *misprio,
		},
	}
	if *quantum > 0 {
		kcfg.Quantum = clock.Cycles(*quantum)
	}

	base := core.Config{
		RE: expr, PD: pd,
		N: *n, S: *s, Op: op, Seed: *seed,
		Dedup: *dedup, CommandGap: *gap,
		Kernel:     kcfg,
		NewFactory: newFactory,
	}

	parallelism := *parallel
	if parallelism <= 0 {
		parallelism = -1 // engine: one worker per CPU
	}

	if !direct {
		// The suite seed space reserves 0 for "default": a literal seed 0
		// would silently collapse onto seed 1's cell.
		if *seed == 0 {
			return usagef("run: -store/-tool require -seed >= 1")
		}
		// A knob the tool ignores at execution time but that re-keys the
		// cell (gap and dedup sit at the spec level of the identity hash)
		// would store a second, behaviorally identical cell — reject it,
		// mirroring the suite's knob-ownership validation. The gate is
		// the registered axes (pattern-generating tools consume the size
		// axis and with it patterns, gaps and dedup), not a tool name.
		if !tl.Axes().S {
			if *dedup {
				return usagef("run: -dedup has no effect on tool %q (it generates no patterns)", tl.Name())
			}
			if *gap != 0 {
				return usagef("run: -gap has no effect on tool %q (it issues no command pattern)", tl.Name())
			}
		}
		return runViaSpec(runSpecArgs{
			usePcore: *usePcore, re: expr, pdSpec: *pdSpec, pd: pd,
			tool: tl.Name(), n: *n, s: *s, opName: *opName, seed: *seed, trials: *trials,
			keepGoing: *keepGoing, dedup: *dedup, gap: *gap,
			workload: *workloadF, rounds: *rounds, quantum: *quantum,
			gcLeak: *gcLeak, dropTR: *dropTR, misprio: *misprio,
			parallelism: parallelism, jsonOut: *jsonOut,
			storeDir: *storeDir, storeURL: *storeURL, storeMem: *storeMem,
			storeBatch: *storeBatch, apiKey: *apiKey,
		})
	}

	res, err := core.RunCampaign(core.CampaignConfig{
		Base: base, Trials: *trials, KeepGoing: *keepGoing, Parallelism: parallelism,
	})
	if err != nil {
		return err
	}

	if *jsonOut {
		rep := &report.Report{
			SchemaVersion: report.SchemaVersion,
			Suite:         "run",
			Cells: []report.Cell{{
				ID:       fmt.Sprintf("%s/%s/n%ds%d/adaptive", *workloadF, op, *n, *s),
				Workload: *workloadF, Op: op.String(), N: *n, S: *s,
				Tool: "adaptive", Seed: *seed,
				Summary: res.Summary(),
			}},
		}
		rep.Aggregate()
		if err := report.Write(os.Stdout, rep); err != nil {
			return err
		}
	} else {
		printCampaign(expr, *n, *s, op, res)
	}
	if len(res.Bugs) > 0 {
		// With -json, stdout carries only the report — the human-oriented
		// extras go to stderr so `ptest run -json | jq` keeps parsing.
		extras := io.Writer(os.Stdout)
		if *jsonOut {
			extras = os.Stderr
		}
		if *dumpJ {
			fmt.Fprintln(extras, "--- reproduction journal of first failure ---")
			fmt.Fprint(extras, res.Bugs[0].Journal)
		}
		if *saveRepro != "" {
			if err := saveReproduction(extras, *saveRepro, base, res, *workloadF, *seed); err != nil {
				return err
			}
		}
		return errFailed
	}
	if !*jsonOut {
		fmt.Println("no failures detected")
	}
	return nil
}

func printCampaign(expr string, n, s int, op pattern.Op, res *core.CampaignResult) {
	fmt.Printf("pTest: RE=%q n=%d s=%d op=%s trials=%d\n", expr, n, s, op, res.Trials)
	fmt.Printf("commands issued: %d   virtual time: %d cycles\n", res.TotalCommands, res.TotalDuration)
	for i, out := range res.Outcomes {
		verdict := "clean"
		if out.Bug != nil {
			verdict = out.Bug.String()
		} else if !out.Finished {
			verdict = "incomplete (step budget)"
		}
		fmt.Printf("  trial %2d seed=%-4d cmds=%-5d cov=%.2f/%.2f  %s\n",
			i+1, out.Seed, out.CommandsIssued,
			out.Coverage.Services, out.Coverage.Transitions, verdict)
	}
	if len(res.Bugs) > 0 {
		fmt.Printf("FAILURES: %d of %d trials (first at trial %d)\n",
			len(res.Bugs), res.Trials, res.FirstBugTrial)
	}
}

// runSpecArgs carries cmdRun's resolved flags into the one-cell-suite
// path.
type runSpecArgs struct {
	usePcore bool
	// re is the resolved expression (after -pcore override), so the
	// spec path and direct execution always run the same RE.
	re, pdSpec, opName        string
	tool                      string
	workload                  string
	storeDir, storeURL        string
	apiKey                    string
	pd                        pfa.Distribution
	n, s, trials, rounds      int
	quantum, gap              int
	gcLeak, dropTR, misprio   int
	seed                      uint64
	keepGoing, dedup, jsonOut bool
	parallelism, storeMem     int
	storeBatch                int
}

// runViaSpec executes the run as a one-cell suite — the path every
// non-adaptive tool takes (tool dispatch lives in the registry, not
// here), and the adaptive path too when -store is set. The cell
// identity — and therefore the derived campaign seed — is exactly what
// `ptest suite` or a ptestd job would compute for the same
// configuration, so all entry points share results: a cell any of them
// computed is never recomputed.
func runViaSpec(a runSpecArgs) error {
	pds := []suite.PDSpec{{Name: "uniform", Builtin: "uniform"}}
	switch {
	case a.pdSpec != "":
		pds = []suite.PDSpec{{Name: "custom", Dist: a.pd}}
	case a.usePcore:
		// The same name/builtin pair a suite spec defaults to, so the
		// paper-configuration cells are shared with paper-style sweeps.
		pds = []suite.PDSpec{{Name: "figure5", Builtin: "pcore"}}
	}
	// Only data-seeded workloads (a registry property, not a name list)
	// consume the workload data seed; stamping it on seed-insensitive
	// workloads would needlessly re-key cells that a suite spec (which
	// omits it) computes identically. The other knobs (rounds etc.) are
	// normalized by the spec's applyDefaults, so the flag default and an
	// omitted spec field already key the same.
	var workloadSeed uint64
	if workload.UsesDataSeed(a.workload) {
		workloadSeed = a.seed
	}
	spec := &suite.Spec{
		Name: "run", RE: a.re, Seed: a.seed, Trials: a.trials,
		KeepGoing: a.keepGoing, Dedup: a.dedup, CommandGap: a.gap,
		TrialParallelism: a.parallelism,
		Workloads: []suite.WorkloadSpec{{
			Name: a.workload, Seed: workloadSeed, Rounds: a.rounds, Quantum: a.quantum,
			GCLeakEvery: a.gcLeak, DropResumeEvery: a.dropTR, MisplacePriorityEvery: a.misprio,
		}},
		Ops:    []string{a.opName},
		Points: []suite.Point{{N: a.n, S: a.s}},
		PDs:    pds,
		Tools:  []suite.ToolSpec{{Name: a.tool}},
	}

	var opts suite.Options
	if a.storeDir != "" || a.storeURL != "" {
		st, err := openStoreFlag(store.Config{Dir: a.storeDir, MemEntries: a.storeMem}, a.storeURL, a.apiKey, a.storeBatch, 0)
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Store = st
	}
	rep, err := suite.RunContext(context.Background(), spec, nil, opts)
	if err != nil {
		return err
	}
	cell := rep.Cells[0]
	if a.jsonOut {
		if err := report.Write(os.Stdout, rep); err != nil {
			return err
		}
	} else {
		source := "executed"
		if rep.StoreHits > 0 {
			source = "served from store"
		}
		sum := cell.Summary
		fmt.Printf("pTest: cell %s (%s)\n", cell.ID, source)
		// CleanFinishes is adaptive-only (mirrors the JSON omitempty):
		// printing a hard 0 for tools that never report it would read as
		// "no trial finished clean".
		clean := ""
		if sum.CleanFinishes > 0 {
			clean = fmt.Sprintf(" clean_finishes=%d", sum.CleanFinishes)
		}
		fmt.Printf("trials=%d bugs=%d bug_rate=%.2f%s commands=%d virtual_cycles=%d\n",
			sum.Trials, sum.Bugs, sum.BugRate, clean, sum.TotalCommands, sum.TotalCycles)
		if sum.FirstBug != "" {
			fmt.Printf("first failure (trial %d): %s\n", sum.FirstBugTrial, sum.FirstBug)
		}
	}
	if cell.Summary.Bugs > 0 {
		return errFailed
	}
	if !a.jsonOut {
		fmt.Println("no failures detected")
	}
	return nil
}

// saveReproduction locates the first failing outcome and writes its
// reproduction file; the confirmation line goes to w.
func saveReproduction(w io.Writer, path string, base core.Config, res *core.CampaignResult, workload string, workloadSeed uint64) error {
	for i, out := range res.Outcomes {
		if out.Bug == nil {
			continue
		}
		cfg := base
		cfg.Seed = base.Seed + uint64(i)
		f := replay.FromOutcome(cfg, out, workload, workloadSeed)
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		err = f.Save(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reproduction written to %s\n", path)
		return nil
	}
	return nil
}

// runReplay re-executes a saved reproduction file.
func runReplay(path string, rounds int) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	f, err := replay.Load(file)
	_ = file.Close()
	if err != nil {
		return err
	}
	// A reproduction file naming a workload this binary doesn't know is
	// corrupt/stale data, not a bad invocation: runtime failure, exit 1.
	newFactory, err := newWorkloadFactory(f.Workload, f.Sources, rounds, f.WorkloadSeed)
	if err != nil {
		return fmt.Errorf("reproduction references unknown workload %q", f.Workload)
	}
	fmt.Printf("replaying %s: %d commands, workload %s\n", path, len(f.Entries), f.Workload)
	if f.BugSummary != "" {
		fmt.Printf("originally detected: %s\n", f.BugSummary)
	}
	out, err := f.Run(newFactory())
	if err != nil {
		return err
	}
	if out.Bug != nil {
		fmt.Println("reproduced:", out.Bug)
		return errFailed
	}
	fmt.Println("replay finished clean (bug did not reproduce)")
	return nil
}
