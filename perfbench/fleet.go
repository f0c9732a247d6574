package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/suite"
)

const (
	// fleetWorkers workers of Parallelism 1 serve the hub: no more
	// execution slots than the 2 vCPUs the baseline was measured on.
	fleetWorkers = 2
	// fleetWarmReps is how many fully cached resubmits follow the cold
	// fleet sweep, one at a time (a closed loop with one client).
	fleetWarmReps = 200
	// eventCapacity sizes the hub's event ring: the cold and warm
	// passes fit without dropping events.
	eventCapacity = 1 << 17
)

// hub is one ptestd hub on loopback with a disk store and its workers,
// all in this process.
type hub struct {
	dir string
	st  *store.Store
	ts  *timedStore
	rt  *routeTimer
	rec *eventlog.Recorder
	srv *server.Server
	hs  *http.Server
	cli *server.Client

	serveDone chan struct{}
	phase     atomic.Int64 // current phase span, for store and worker spans
	trips     atomic.Int64 // worker round trips

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	workerErr   chan error
}

// startHub opens a fresh disk store under base, starts the hub on a
// loopback port and its workers, and returns once the hub lists every
// worker. The store, the handler and the workers' HTTP client are
// wrapped in the timing decorators, and the hub records events. The
// workers otherwise run with their defaults, as `ptest serve -hub-url`
// does.
func startHub(base string, tr *tracer) (*hub, error) {
	dir, err := os.MkdirTemp(base, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	h := &hub{dir: dir, st: st, workerErr: make(chan error, fleetWorkers)}
	h.ts = &timedStore{inner: st, tr: tr, phase: &h.phase}
	h.rec = eventlog.New(eventlog.Config{Capacity: eventCapacity})
	if h.srv, err = server.New(server.Config{Store: h.ts, Events: h.rec}); err != nil {
		_ = st.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	h.srv.Start()
	h.rt = newRouteTimer(h.srv.Handler(), tr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Drain()
		_ = st.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	h.hs = &http.Server{Handler: h.rt}
	h.serveDone = make(chan struct{})
	go func() {
		defer close(h.serveDone)
		_ = h.hs.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()

	h.cli = server.NewClient(url, server.WithHTTPClient(&http.Client{
		Transport: clientTransport{base: http.DefaultTransport},
	}))

	wctx, stop := context.WithCancel(context.Background())
	h.stopWorkers = stop
	for i := 0; i < fleetWorkers; i++ {
		w, err := dispatch.NewWorker(dispatch.WorkerConfig{
			HubURL: url, Name: fmt.Sprintf("bench-%d", i+1), Parallelism: 1,
			// The default client's timeout, with the counting transport.
			HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: workerTransport{
				base: http.DefaultTransport, tr: tr, phase: &h.phase, trips: &h.trips,
			}},
		})
		if err != nil {
			_ = h.close()
			return nil, err
		}
		h.workers.Add(1)
		go func() {
			defer h.workers.Done()
			if err := w.Run(wctx); err != nil && !errors.Is(err, context.Canceled) {
				h.workerErr <- err
			}
		}()
	}
	if err := h.waitForWorkers(); err != nil {
		_ = h.close()
		return nil, err
	}
	return h, nil
}

func (h *hub) waitForWorkers() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		ws, err := h.cli.Workers(ctx)
		if err == nil && len(ws) >= fleetWorkers {
			return nil
		}
		select {
		case err := <-h.workerErr:
			return fmt.Errorf("fleet worker: %w", err)
		case <-ctx.Done():
			return fmt.Errorf("hub never listed %d workers", fleetWorkers)
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the workers (they deregister), the listener, the hub and
// the store, waits for every goroutine it started and every handler to
// return, and removes the store directory. The client side's idle
// connections are closed first: a connection a transport dialed but
// never used would otherwise hold Shutdown for five seconds.
func (h *hub) close() error {
	h.stopWorkers()
	h.workers.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.serveDone
	h.srv.Drain()
	if cerr := h.st.Close(); err == nil {
		err = cerr
	}
	select {
	case werr := <-h.workerErr:
		if err == nil {
			err = fmt.Errorf("fleet worker: %w", werr)
		}
	default:
	}
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// submitAndWatch submits the spec and follows the job to its end: one
// closed-loop request from the client's side.
func (h *hub) submitAndWatch(ctx context.Context, data []byte, tr *tracer, parent int64) (server.JobInfo, error) {
	sp := tr.start("client", "client.Submit", parent)
	info, err := h.cli.Submit(withSpan(ctx, sp.id()), bytes.NewReader(data), 0)
	sp.end()
	if err != nil {
		return info, err
	}
	sp = tr.start("client", "client.Watch", parent)
	final, err := h.cli.Watch(withSpan(ctx, sp.id()), info.ID, nil)
	sp.end()
	return final, err
}

// fleetProbe measures the fleet path for the traced run: the fleet
// spec runs locally as the reference, then cold through a fresh hub with
// two workers and a disk store, then fleetWarmReps times warm against
// that store — all traced, so the store, server and dispatch layers get
// their per-layer metrics. The probe is part of every traced run; its
// cold sweep is too erratic to gate on as a workload (see README.md).
func (r *run) fleetProbe(ctx context.Context, tr *tracer, m *measured) error {
	base, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	data, err := specJSON("fleet", r.seed, 0)
	if err != nil {
		return err
	}
	spec, err := parseSpec(data)
	if err != nil {
		return err
	}
	n := wantCells["fleet"]
	r.attempt(n)
	ref, wall, err := localSweep(ctx, spec, nil, 0)
	if err != nil {
		r.fail(n, "fleet local reference: %v", err)
		return nil
	}
	m.fleetLocalS = wall.Seconds()
	refCanon := r.checkCold("fleet", 0, spec, ref, "fleet local reference")
	root := tr.start("workload", "fleet-probe", 0)
	defer root.end()
	return r.fleetPass(ctx, spec, data, refCanon, tr, root.id(), base, m)
}

// fleetPass is one cold sweep and its warm resubmits on a fresh hub.
// It returns an error only when the hub cannot be started or stopped;
// failed jobs and checks count against the run instead.
func (r *run) fleetPass(ctx context.Context, spec *suite.Spec, data, refCanon []byte,
	tr *tracer, root int64, base string, m *measured) error {
	ph := tr.start("phase", "setup", root)
	start := time.Now()
	h, err := startHub(base, tr)
	m.fleetSetupS = time.Since(start).Seconds()
	ph.end()
	if err != nil {
		return err
	}
	r.fleetJobs(ctx, h, spec, data, refCanon, tr, root, m)
	err = h.close()
	// Read after close, which waits for every handler to return.
	m.addRoutes(h.rt.latencies())
	return err
}

// fleetJobs submits the cold sweep and then the warm resubmits.
func (r *run) fleetJobs(ctx context.Context, h *hub, spec *suite.Spec, data, refCanon []byte,
	tr *tracer, root int64, m *measured) {
	n := wantCells["fleet"]

	// Cold: every cell executes on the workers and lands in the store.
	ph := tr.start("phase", "cold", root)
	h.phase.Store(ph.id())
	syncs0, trips0 := h.st.Stats().Syncs, h.trips.Load()
	r.attempt(n)
	start := time.Now()
	final, err := h.submitAndWatch(ctx, data, tr, ph.id())
	wall := time.Since(start)
	ph.end()
	trips := h.trips.Load() - trips0
	if err != nil || final.Status != server.JobDone {
		r.fail(n, "fleet cold: status %q: %v %s", final.Status, err, final.Error)
		return
	}
	rep, err := h.cli.Report(ctx, final.ID, false)
	if err != nil {
		r.fail(n, "fleet cold: report: %v", err)
		return
	}
	r.sameReport(n, "fleet cold vs local", refCanon, r.checkCold("fleet", 0, spec, rep, "fleet cold"))
	if rep.StoreMisses != uint64(n) {
		r.fail(n, "fleet cold: %d cells executed, want %d", rep.StoreMisses, n)
	}
	m.fleetColdS = wall.Seconds()
	_, puts, hits, misses := h.ts.take()
	m.storePuts = append(m.storePuts, puts...)
	m.coldHits += hits
	m.coldLookups += hits + misses
	m.syncs += h.st.Stats().Syncs - syncs0
	m.puts += len(puts)
	m.trips += int(trips)
	m.remoteCells += n
	m.addLeases(h.rec, final.ID, rep, wall)

	// Warm: each resubmit is served entirely from the store.
	ph = tr.start("phase", "warm", root)
	h.phase.Store(ph.id())
	var lastID string
	for i := 0; i < fleetWarmReps; i++ {
		r.attempt(n)
		start := time.Now()
		final, err := h.submitAndWatch(ctx, data, tr, ph.id())
		lat := time.Since(start)
		switch {
		case err != nil || final.Status != server.JobDone:
			r.fail(n, "fleet warm %d: status %q: %v %s", i, final.Status, err, final.Error)
			continue
		case final.CellsExecuted != 0 || final.StoreHits != uint64(n):
			r.fail(n, "fleet warm %d: %d executed, %d hits; want 0 executed, %d hits",
				i, final.CellsExecuted, final.StoreHits, n)
			continue
		}
		lastID = final.ID
		m.fleetWarmMS = append(m.fleetWarmMS, ms(lat))
	}
	ph.end()
	h.phase.Store(root)
	if lastID != "" {
		got, err := h.cli.ReportBytes(ctx, lastID, true)
		if err != nil {
			r.fail(n, "fleet warm: report: %v", err)
		} else {
			r.sameReport(n, "fleet warm vs local", refCanon, got)
		}
	}
	gets, _, hits, misses := h.ts.take()
	m.storeGets = append(m.storeGets, gets...)
	m.warmHits += hits
	m.warmLookups += hits + misses
	m.addQueueWaits(h.rec)
}
