package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/store"
)

// The traced run records spans around the calls the benchmark makes
// into each layer — nothing inside the program is instrumented. A span
// is a name, a layer, a start, an end and the span that caused it. The
// spans stay in memory and are written out once the run ends.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(layer, name string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Layer: layer, Name: name,
		Start: time.Since(t.epoch),
	}}
}

// id is the span's identifier, 0 for an untraced span.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(layer, name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.next.Add(1), Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (parallel cells, concurrent requests); the covered part is the
// union of their intervals clipped to the parent's.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// --- context and wire propagation -------------------------------------------

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// spanHeader carries the calling span across loopback HTTP so the
// hub-side route span nests under the client call or worker round trip
// that caused it.
const spanHeader = "X-Perfbench-Span"

// clientTransport stamps the caller's span (from the request context)
// onto requests a server.Client sends.
type clientTransport struct{ base http.RoundTripper }

func (c clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := spanFrom(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return c.base.RoundTrip(r)
}

// workerTransport counts a fleet worker's round trips to the hub and
// records each as a dispatch span under the current phase.
type workerTransport struct {
	base  http.RoundTripper
	tr    *tracer
	phase *atomic.Int64 // current phase span
	trips *atomic.Int64
}

func (w workerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w.trips.Add(1)
	sp := w.tr.start("dispatch", "dispatch."+routeOf(r), w.phase.Load())
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10))
	resp, err := w.base.RoundTrip(r)
	if err != nil || resp.Body == nil {
		sp.end()
		return resp, err
	}
	// The round trip ends when the worker has read the body.
	resp.Body = &endOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	sp   *openSpan
	once sync.Once
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.sp.end)
	return err
}

// routeOf names the hub route a request addresses, for the per-route
// server metrics.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/lease:batch"):
		return "lease_batch"
	case strings.HasPrefix(p, "/api/v1/jobs/") && strings.HasSuffix(p, "/spec"):
		return "spec"
	case strings.HasPrefix(p, "/api/v1/jobs/") && strings.HasSuffix(p, "/report"):
		return "report"
	case strings.HasPrefix(p, "/api/v1/jobs/") && strings.HasSuffix(p, "/events"):
		return "watch"
	case r.Method == http.MethodGet && p == "/api/v1/workers":
		return "workers"
	case r.Method == http.MethodPost && p == "/api/v1/workers":
		return "register"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/api/v1/workers/"):
		return "deregister"
	}
	return "other"
}

// serverRoutes are the routes the per-route metrics report.
var serverRoutes = []string{"submit", "lease_batch", "spec", "report", "watch", "workers"}

// routeTimer wraps the hub's handler: one server span and one latency
// sample per request.
type routeTimer struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	lat  map[string][]time.Duration
}

func newRouteTimer(next http.Handler, tr *tracer) *routeTimer {
	return &routeTimer{next: next, tr: tr, lat: map[string][]time.Duration{}}
}

func (m *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	sp := m.tr.start("server", "server."+route, parent)
	m.next.ServeHTTP(w, r)
	sp.end()
	d := time.Since(start)
	m.mu.Lock()
	m.lat[route] = append(m.lat[route], d)
	m.mu.Unlock()
}

func (m *routeTimer) latencies() map[string][]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]time.Duration, len(m.lat))
	for k, v := range m.lat {
		out[k] = append([]time.Duration(nil), v...)
	}
	return out
}

// timedStore is a CellStore decorator: it times every Get and Put and
// counts hits, recording each call as a store span under the current
// phase.
type timedStore struct {
	inner store.CellStore
	tr    *tracer
	phase *atomic.Int64

	mu     sync.Mutex
	gets   []time.Duration
	puts   []time.Duration
	hits   int
	misses int
}

func (s *timedStore) Get(key string) (report.Cell, bool) {
	start := time.Now()
	c, ok := s.inner.Get(key)
	end := time.Now()
	s.tr.record("store", "store.get", s.phase.Load(), start, end)
	s.mu.Lock()
	s.gets = append(s.gets, end.Sub(start))
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return c, ok
}

func (s *timedStore) Put(key string, cell report.Cell) error {
	start := time.Now()
	err := s.inner.Put(key, cell)
	end := time.Now()
	s.tr.record("store", "store.put", s.phase.Load(), start, end)
	s.mu.Lock()
	s.puts = append(s.puts, end.Sub(start))
	s.mu.Unlock()
	return err
}

func (s *timedStore) Stats() store.Stats       { return s.inner.Stats() }
func (s *timedStore) Lifetime() store.Counters { return s.inner.Lifetime() }
func (s *timedStore) Close() error             { return s.inner.Close() }

// take returns and resets the samples gathered since the last call.
func (s *timedStore) take() (gets, puts []time.Duration, hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gets, puts, hits, misses = s.gets, s.puts, s.hits, s.misses
	s.gets, s.puts, s.hits, s.misses = nil, nil, 0, 0
	return
}

func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
