package main

import (
	"time"

	"repro/internal/eventlog"
	"repro/internal/report"
)

// toolLabels are the tool labels the per-tool metrics report.
var toolLabels = []string{"adaptive", "adaptive-refine", "contest", "chess", "pct"}

// spanLayers are the layers spans are recorded for, outermost first.
var spanLayers = []string{"workload", "phase", "suite", "cell", "client", "server", "dispatch", "store"}

// endToEndNames are the metrics a --trace 0 run reports.
var endToEndNames = []string{
	"sweep_wall_s", "setup_s", "sim_mcycles_per_s", "cell_p50_ms", "cell_tail_ms", "max_rss_mb",
}

// perLayerNames are the metrics a --trace 1 run reports.
func perLayerNames() []string {
	names := []string{
		"pcore.step_ns", "core.run_ms", "platform.step_ns",
		"pfa.compile_us", "pfa.compiles", "pfa.generate_us", "pattern.merge_us",
	}
	for _, l := range toolLabels {
		names = append(names, "tool."+l+".host_s", "tool."+l+".mcycles_per_s")
	}
	names = append(names, "suite.idle_frac", "suite.plan_us",
		"store.put_us.p50", "store.put_us.tail", "store.fsyncs_per_cell",
		"store.get_us.p50", "store.get_us.tail", "store.hit_frac.cold", "store.hit_frac.warm")
	for _, rt := range serverRoutes {
		names = append(names, "server."+rt+".calls", "server."+rt+".p50_ms")
	}
	names = append(names, "fleet.setup_s", "fleet.local_wall_s", "fleet.cold_wall_s",
		"fleet.warm_p50_ms", "fleet.warm_tail_ms", "server.queue_wait_ms",
		"dispatch.roundtrips_per_cell", "dispatch.offer_wait_ms.p50", "dispatch.offer_wait_ms.tail",
		"dispatch.hold_ms.p50", "dispatch.hold_ms.tail", "dispatch.worker_busy_frac", "dispatch.waste_frac",
		"trace.overhead_frac")
	for _, l := range spanLayers {
		names = append(names, "self_s."+l)
	}
	return names
}

// measured gathers one run's samples.
type measured struct {
	setup  []float64 // s
	planUS []float64

	walls       []float64     // untraced cold sweeps, s
	tracedWalls []float64     // traced cold sweeps, s
	cells       []report.Cell // pooled over repetitions
	repCellMS   [][]float64   // cell host times, per repetition
	idle        []float64
	pfaCompiles []float64

	// The fleet probe (traced).
	fleetSetupS, fleetLocalS, fleetColdS float64
	fleetWarmMS                          []float64
	// Store, from the timing decorator on the fleet hub.
	storeGets, storePuts                         []time.Duration
	coldHits, coldLookups, warmHits, warmLookups int
	syncs                                        uint64
	puts                                         int
	// Server, from the route timer and the event log.
	routes      map[string][]time.Duration
	queueWaitMS []float64
	// Dispatch, from the worker transport and the event log.
	trips, remoteCells int
	offerMS, holdMS    []float64
	busy               []float64
	executions, useful int
	droppedEvents      uint64
}

// addCold records one untraced cold sweep.
func (m *measured) addCold(rep *report.Report, wall time.Duration, parallelism int) {
	m.walls = append(m.walls, wall.Seconds())
	m.cells = append(m.cells, rep.Cells...)
	m.repCellMS = append(m.repCellMS, cellWalls(rep.Cells))
	m.idle = append(m.idle, idleFrac(wall, cellWalls(rep.Cells), parallelism))
	m.pfaCompiles = append(m.pfaCompiles, float64(rep.PFACompiles))
}

func cellWalls(cells []report.Cell) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.WallMS
	}
	return out
}

func eventTime(e eventlog.Event) (time.Time, bool) {
	t, err := time.Parse(time.RFC3339Nano, e.Time)
	return t, err == nil
}

// addLeases reads one cold fleet job's lease lifecycle from the event
// log: how long each cell waited to be offered to a worker, how long
// its lease stayed open beyond the cell's own execution, and how many
// executions it took.
func (m *measured) addLeases(rec *eventlog.Recorder, job string, rep *report.Report, wall time.Duration) {
	evs, _, dropped := rec.Snapshot(0, eventlog.Filter{Job: job})
	m.droppedEvents += dropped
	started := map[string]time.Time{}
	offered := map[string]time.Time{}
	granted := map[string]time.Time{}
	for _, e := range evs {
		t, ok := eventTime(e)
		if !ok {
			continue
		}
		switch e.Type {
		case eventlog.TypeCellStart:
			started[e.Cell] = t
		case eventlog.TypeLeaseGranted, eventlog.TypeLeaseStolen:
			m.executions++
			granted[e.Lease] = t
			if _, seen := offered[e.Cell]; !seen {
				offered[e.Cell] = t
			}
		}
	}
	wallMS := map[string]float64{}
	for _, c := range rep.Cells {
		wallMS[c.ID] = c.WallMS
	}
	for _, e := range evs {
		if e.Type != eventlog.TypeLeaseCompleted {
			continue
		}
		m.useful++
		t, ok := eventTime(e)
		g, okg := granted[e.Lease]
		if ok && okg {
			m.holdMS = append(m.holdMS, holdMS(g, t, wallMS[e.Cell]))
		}
	}
	for cell, s := range started {
		if o, ok := offered[cell]; ok {
			m.offerMS = append(m.offerMS, ms(o.Sub(s)))
		}
	}
	m.busy = append(m.busy, sum(cellWalls(rep.Cells))/(ms(wall)*fleetWorkers))
}

// addQueueWaits reads every job's submitted → started wait from the
// event log.
func (m *measured) addQueueWaits(rec *eventlog.Recorder) {
	evs, _, dropped := rec.Snapshot(0, eventlog.Filter{Type: "job"})
	m.droppedEvents += dropped
	submitted := map[string]time.Time{}
	for _, e := range evs {
		t, ok := eventTime(e)
		if !ok {
			continue
		}
		switch e.Type {
		case eventlog.TypeJobSubmitted:
			submitted[e.Job] = t
		case eventlog.TypeJobStarted:
			if s, ok := submitted[e.Job]; ok {
				m.queueWaitMS = append(m.queueWaitMS, ms(t.Sub(s)))
			}
		}
	}
}

func (m *measured) addRoutes(lat map[string][]time.Duration) {
	if m.routes == nil {
		m.routes = map[string][]time.Duration{}
	}
	for k, v := range lat {
		m.routes[k] = append(m.routes[k], v...)
	}
}

// reportEndToEnd sets the untraced run's metrics.
func (r *run) reportEndToEnd(m *measured) {
	r.set("setup_s", median(m.setup), "s")
	r.set("sweep_wall_s", median(m.walls), "s")
	cellMS := cellWalls(m.cells)
	var cycles float64
	for _, c := range m.cells {
		cycles += float64(c.Summary.TotalCycles)
	}
	r.set("sim_mcycles_per_s", cycles/sum(cellMS)/1e3, "Mcycles/s")
	r.set("cell_p50_ms", median(cellMS), "ms")
	r.setTail("cell_tail_ms", cellMS, "cells")
	for k, wall := range m.walls {
		ct := tailOf(m.repCellMS[k])
		r.notef("rep %d: sweep %.4f s, cell p50 %.3f ms, cell p%.1f %.3f ms",
			k, wall, median(m.repCellMS[k]), ct.Pct, ct.Value)
	}
}

// setTail reports the tail percentile of xs and notes which percentile
// it is and how many samples lie beyond it.
func (r *run) setTail(name string, xs []float64, what string) {
	t := tailOf(xs)
	if !t.OK {
		r.notef("%s: %d %s are too few for a tail with %d beyond it", name, t.N, what, tailMin)
		r.set(name, 0, "ms")
		return
	}
	r.set(name, t.Value, "ms")
	r.notef("%s is p%.1f of %d %s (%d beyond)", name, t.Pct, t.N, what, t.Beyond)
}

// reportLayers runs the layer probes and sets the traced run's
// per-layer metrics. Layers the workload does not exercise have no
// samples; they read 0 and a note says so.
func (r *run) reportLayers(m *measured, tr *tracer) error {
	r.set("trace.overhead_frac", median(m.tracedWalls)/median(m.walls)-1, "ratio")

	// pcore: the kernel-only step probe.
	var steps []float64
	for i := 0; i < 3; i++ {
		r.attempt(1)
		ns, err := pcoreStepNS()
		if err != nil {
			r.fail(1, "%v", err)
			continue
		}
		steps = append(steps, ns)
	}
	r.set("pcore.step_ns", median(steps), "ns")

	// core/platform and pfa/pattern: decomposed adaptive trials.
	r.attempt(1)
	trials, err := adaptiveTrials(r.seed)
	if err != nil {
		r.fail(1, "%v", err)
	}
	var compile, generate, merge, runMS []float64
	var runTotal time.Duration
	var stepTotal uint64
	for _, p := range trials {
		compile = append(compile, us(p.compile))
		generate = append(generate, us(p.generate))
		merge = append(merge, us(p.merge))
		runMS = append(runMS, ms(p.run))
		runTotal += p.run
		stepTotal += p.steps
	}
	r.set("pfa.compile_us", median(compile), "us")
	r.set("pfa.generate_us", median(generate), "us")
	r.set("pattern.merge_us", median(merge), "us")
	r.set("core.run_ms", median(runMS), "ms")
	r.set("platform.step_ns", float64(runTotal.Nanoseconds())/float64(stepTotal), "ns")
	r.set("pfa.compiles", median(m.pfaCompiles), "count")

	// tool: host time per sweep and simulator throughput, per label.
	sweeps := float64(max(len(m.walls), 1))
	for _, l := range toolLabels {
		var wallMS, cycles float64
		for _, c := range m.cells {
			if c.Tool == l {
				wallMS += c.WallMS
				cycles += float64(c.Summary.TotalCycles)
			}
		}
		r.set("tool."+l+".host_s", wallMS/1e3/sweeps, "s")
		r.set("tool."+l+".mcycles_per_s", cycles/wallMS/1e3, "Mcycles/s")
	}

	// suite
	r.set("suite.idle_frac", median(m.idle), "ratio")
	r.set("suite.plan_us", median(m.planUS), "us")

	// store
	r.setDurations("store.put_us", m.storePuts, "us", us)
	r.setDurations("store.get_us", m.storeGets, "us", us)
	r.set("store.fsyncs_per_cell", float64(m.syncs)/float64(m.puts), "count")
	r.set("store.hit_frac.cold", float64(m.coldHits)/float64(m.coldLookups), "ratio")
	r.set("store.hit_frac.warm", float64(m.warmHits)/float64(m.warmLookups), "ratio")

	// The fleet path end to end, from the probe.
	r.set("fleet.setup_s", m.fleetSetupS, "s")
	r.set("fleet.local_wall_s", m.fleetLocalS, "s")
	r.set("fleet.cold_wall_s", m.fleetColdS, "s")
	r.set("fleet.warm_p50_ms", median(m.fleetWarmMS), "ms")
	r.setTail("fleet.warm_tail_ms", m.fleetWarmMS, "fleet warm resubmits")

	// server
	for _, rt := range serverRoutes {
		lat := m.routes[rt]
		r.set("server."+rt+".calls", float64(len(lat)), "count")
		r.set("server."+rt+".p50_ms", median(durationsMS(lat)), "ms")
	}
	r.set("server.queue_wait_ms", median(m.queueWaitMS), "ms")

	// dispatch
	r.set("dispatch.roundtrips_per_cell", float64(m.trips)/float64(m.remoteCells), "count")
	r.setSamples("dispatch.offer_wait_ms", m.offerMS, "ms")
	r.setSamples("dispatch.hold_ms", m.holdMS, "ms")
	r.set("dispatch.worker_busy_frac", median(m.busy), "ratio")
	r.set("dispatch.waste_frac", 1-float64(m.useful)/float64(m.executions), "ratio")
	if m.droppedEvents > 0 {
		r.notef("the event ring dropped %d events; event-derived metrics are partial", m.droppedEvents)
	}

	// Self time per layer over the whole traced run.
	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, l := range spanLayers {
		r.set("self_s."+l, self[l].Seconds(), "s")
	}
	path := traceFile(r.traceDir, r.workload, r.seed)
	if err := tr.writeJSONL(path); err != nil {
		r.notef("spans not written: %v", err)
	} else {
		r.notef("%d spans written to %s", len(spans), path)
	}
	return nil
}

// setSamples reports <name>.p50 and <name>.tail of xs.
func (r *run) setSamples(name string, xs []float64, unit string) {
	r.set(name+".p50", median(xs), unit)
	t := tailOf(xs)
	if !t.OK {
		r.set(name+".tail", 0, unit)
		r.notef("%s.tail: %d samples are too few for a tail with %d beyond it", name, t.N, tailMin)
		return
	}
	r.set(name+".tail", t.Value, unit)
	r.notef("%s.tail is p%.1f of %d samples (%d beyond)", name, t.Pct, t.N, t.Beyond)
}

func (r *run) setDurations(name string, ds []time.Duration, unit string, conv func(time.Duration) float64) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = conv(d)
	}
	r.setSamples(name, xs, unit)
}
