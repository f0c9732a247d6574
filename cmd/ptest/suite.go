// ptest suite: expand a declarative matrix spec into a deterministic
// run plan, execute every cell, and write the machine-readable reports
// CI diffs run-over-run. With -store, cells already computed by any
// entry point (run, suite, a ptestd job) are served from the
// content-addressed result store instead of re-executing. SIGINT mid-
// sweep flushes the completed plan-order prefix and writes a partial
// report marked "interrupted": true instead of dying mid-write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/suite"
)

func cmdSuite(args []string) (err error) {
	fs := flag.NewFlagSet("ptest suite", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "suite spec JSON file (required)")
		outPath    = fs.String("out", "", "aggregated JSON report path (default: stdout)")
		jsonlPath  = fs.String("jsonl", "", "per-cell JSONL stream path (optional)")
		canonical  = fs.Bool("canonical", false, "zero timing fields in the report (for committed baselines)")
		cells      = fs.Int("cells", 0, "cell workers: overrides the spec's cell_parallelism (0 = keep spec)")
		storeDir   = fs.String("store", "", "content-addressed result store directory (cells found there are not re-executed)")
		storeURL   = fs.String("store-url", "", "remote result store: a ptestd base URL whose cell cache this run shares; comma-separate several URLs for a sharded hub tier (mutually exclusive with -store)")
		storeMem   = fs.Int("store-mem", 4096, "result-store in-memory LRU entries")
		storeBatch = fs.Int("store-batch", 16, "coalesce remote store writes into batches of this many cells (0 = one PUT per cell; -store-url only)")
		apiKey     = apiKeyFlag(fs)
		quiet      = fs.Bool("quiet", false, "suppress the per-cell progress summary on stderr")
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
	if *specPath == "" {
		return usagef("suite: -spec is required")
	}
	spec, err := suite.ParseFile(*specPath)
	if err != nil {
		return usageError{err}
	}
	if *cells != 0 {
		spec.CellParallelism = *cells
	}

	var opts suite.Options
	if *storeDir != "" || *storeURL != "" {
		st, err := openStoreFlag(store.Config{Dir: *storeDir, MemEntries: *storeMem}, *storeURL, *apiKey, *storeBatch, 0)
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Store = st
	}

	var jsonl io.Writer
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = f
	}

	// SIGINT/SIGTERM stop the sweep at the next cell boundary; the
	// completed prefix still comes back as an interrupted partial report.
	// After the first signal the handler is released, so a second Ctrl-C
	// kills the process instead of being swallowed while a long cell
	// finishes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		select {
		case <-sigc:
			signal.Stop(sigc)
			fmt.Fprintln(os.Stderr, "suite: interrupt — finishing the current cell (interrupt again to abort hard)")
			cancel()
		case <-ctx.Done():
		}
	}()

	rep, err := suite.RunContext(ctx, spec, jsonl, opts)
	interrupted := errors.Is(err, suite.ErrInterrupted)
	if err != nil && !interrupted {
		return err
	}
	// Capture before Canonical zeroes the store counters.
	storeHits, storeMisses := rep.StoreHits, rep.StoreMisses
	if *canonical {
		rep = report.Canonical(rep)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "suite %s: %d cells, %d with bugs (detection rate %.2f), %d trials, %d bugs\n",
			rep.Suite, rep.Totals.Cells, rep.Totals.CellsWithBugs,
			rep.Totals.DetectionRate, rep.Totals.Trials, rep.Totals.Bugs)
		if opts.Store != nil {
			fmt.Fprintf(os.Stderr, "suite %s: %d cells from store, %d executed\n",
				rep.Suite, storeHits, storeMisses)
		}
	}
	var writeErr error
	if *outPath == "" {
		writeErr = report.Write(os.Stdout, rep)
	} else {
		writeErr = report.WriteFile(*outPath, rep)
	}
	if writeErr != nil {
		return writeErr
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "suite %s: interrupted after %d cells — partial report marked \"interrupted\": true\n",
			rep.Suite, rep.Totals.Cells)
		return errFailed
	}
	return nil
}
