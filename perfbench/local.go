package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/report"
	"repro/internal/suite"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 201

// pinnedDigests are the SHA-256 digests of each workload's canonical
// report for repetition 0 at defaultSeed. Any change to what the
// program computes for these specs changes them.
var pinnedDigests = map[string]string{
	"longtail":   "f2499a08fe54a9c0141c6664869620fe74adb72e4b36a93e7aedaa4a94f81ab0",
	"shortcells": "8cf1e0577c4ef35da2489915982236796790e043225c4da3e68e92230aa78f1e",
	"fleet":      "3dd710c20696330b7b52c9f90c984f3568c2e8f838c3795cc857fcb090d74f4b", // the fleet probe's spec
}

func parseSpec(data []byte) (*suite.Spec, error) {
	return suite.Parse(bytes.NewReader(data))
}

// canonical renders the report exactly as `ptest suite -canonical`
// writes it: timing fields zeroed, byte-identical across runs.
func canonical(rep *report.Report) ([]byte, error) {
	var b bytes.Buffer
	if err := report.Write(&b, report.Canonical(rep)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timeSetup parses, validates and expands workload w's spec: the
// set-up a user pays before the first cell runs.
func timeSetup(w string, data []byte) (time.Duration, *suite.Spec, error) {
	start := time.Now()
	spec, err := parseSpec(data)
	if err != nil {
		return 0, nil, err
	}
	cells := spec.Expand()
	d := time.Since(start)
	if len(cells) != wantCells[w] {
		return 0, nil, fmt.Errorf("spec %s expands to %d cells, want %d", spec.Name, len(cells), wantCells[w])
	}
	return d, spec, nil
}

// timePlan is the suite's planning work: Expand plus a CellKey for
// every cell, as a store-backed run computes them.
func timePlan(spec *suite.Spec) time.Duration {
	start := time.Now()
	for _, c := range spec.Expand() {
		_ = spec.CellKey(c)
	}
	return time.Since(start)
}

// localSweep runs the spec in-process through suite.RunContext. With a
// tracer, the run is one suite span and each cell executes under a cell
// span through the suite's public per-cell executor.
func localSweep(ctx context.Context, spec *suite.Spec, tr *tracer, parent int64) (*report.Report, time.Duration, error) {
	var opts suite.Options
	sp := tr.start("suite", "suite.RunContext", parent)
	if tr != nil {
		opts.Exec = func(_ context.Context, s *suite.Spec, c suite.Cell) (report.Cell, error) {
			csp := tr.start("cell", "cell."+c.Tool.DisplayLabel(), sp.id())
			defer csp.end()
			return suite.ExecuteCell(s, c)
		}
	}
	start := time.Now()
	rep, err := suite.RunContext(ctx, spec, nil, opts)
	wall := time.Since(start)
	sp.end()
	return rep, wall, err
}

// checkCold verifies a cold report of spec w and returns its canonical
// bytes. Failures count every cell of the sweep as failed.
func (r *run) checkCold(w string, rep int, spec *suite.Spec, rp *report.Report, what string) []byte {
	n := wantCells[w]
	canon, err := canonical(rp)
	switch {
	case err != nil:
		r.fail(n, "%s rep %d: %v", what, rep, err)
		return nil
	case len(rp.Cells) != n || rp.Interrupted:
		r.fail(n, "%s rep %d: %d cells (interrupted=%v), want %d", what, rep, len(rp.Cells), rp.Interrupted, n)
		return nil
	case rp.SpecDigest != spec.Digest():
		r.fail(n, "%s rep %d: spec digest %s, want %s", what, rep, rp.SpecDigest, spec.Digest())
		return nil
	}
	if rep == 0 && r.seed == defaultSeed {
		if want, got := pinnedDigests[w], digest(canon); got != want {
			r.fail(n, "%s rep 0: canonical report digest %s, pinned %s", what, got, want)
		}
	}
	return canon
}

// sameReport fails the check, counting n cells as failed, unless two
// canonical reports are byte-identical.
func (r *run) sameReport(n int, what string, want, got []byte) {
	if want != nil && got != nil && !bytes.Equal(want, got) {
		r.fail(n, "%s: canonical report differs (%s vs %s)", what, digest(want)[:12], digest(got)[:12])
	}
}

// runLocal measures a local workload: cold sweeps through
// suite.RunContext with no store. A traced run repeats each sweep under
// spans, then runs the fleet probe and the layer probes.
func (r *run) runLocal() error {
	ctx := context.Background()
	n := wantCells[r.workload]
	data0, err := specJSON(r.workload, r.seed, 0)
	if err != nil {
		return err
	}
	var m measured
	for i := 0; i < setupReps; i++ {
		d, spec, err := timeSetup(r.workload, data0)
		if err != nil {
			return err
		}
		m.setup = append(m.setup, d.Seconds())
		m.planUS = append(m.planUS, us(timePlan(spec)))
	}

	var tr *tracer
	if r.traced {
		tr = newTracer()
	}
	for k := 0; k < r.reps(); k++ {
		data, err := specJSON(r.workload, r.seed, k)
		if err != nil {
			return err
		}
		spec, err := parseSpec(data)
		if err != nil {
			return err
		}
		r.attempt(n)
		rep, wall, err := localSweep(ctx, spec, nil, 0)
		if err != nil {
			r.fail(n, "rep %d: %v", k, err)
			continue
		}
		canon := r.checkCold(r.workload, k, spec, rep, "local")
		m.addCold(rep, wall, spec.CellParallelism)

		// In a traced run, the repetition runs again under spans: one
		// workload span per repetition, with a phase span for the sweep.
		if r.traced {
			root := tr.start("workload", r.workload, 0)
			ph := tr.start("phase", "sweep", root.id())
			r.attempt(n)
			trep, twall, err := localSweep(ctx, spec, tr, ph.id())
			ph.end()
			root.end()
			if err != nil {
				r.fail(n, "traced rep %d: %v", k, err)
				continue
			}
			r.sameReport(n, fmt.Sprintf("rep %d: traced vs untraced", k), canon, r.checkCold(r.workload, k, spec, trep, "traced"))
			m.tracedWalls = append(m.tracedWalls, twall.Seconds())
		}
	}
	if r.traced {
		if err := r.fleetProbe(ctx, tr, &m); err != nil {
			return err
		}
		return r.reportLayers(&m, tr)
	}
	r.reportEndToEnd(&m)
	return nil
}
