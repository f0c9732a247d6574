// Package coverage measures how much of the slave-service behaviour a
// test run exercised: which services were invoked, which PFA transitions
// were taken, and which cross-task interleaving pairs occurred. The
// paper names code-coverage analysis as "useful information for stress
// testing" (§II-A) and leaves fault-coverage verification as future
// work; this package provides the metrics the ablation benches report.
package coverage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/nfa"
	"repro/internal/pfa"
)

// edge is an ordered pair of service labels: a transition
// (previous label, symbol) or a cross-task pair (symbol, next symbol).
// As a map key it hashes both strings without building a third.
type edge struct{ from, to string }

// Tracker accumulates coverage over a stream of issued commands.
type Tracker struct {
	services    map[string]int
	transitions map[edge]int   // (prevLabel, symbol) per logical task
	pairs       map[edge]int   // adjacent cross-task pairs (symA, symB)
	lastSym     map[int]string // per logical task: previous symbol
	prevTask    int
	prevSym     string
	hasPrev     bool
	commands    int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		services:    map[string]int{},
		transitions: map[edge]int{},
		pairs:       map[edge]int{},
		lastSym:     map[int]string{},
	}
}

// Reset clears the tracker for reuse, keeping its map storage.
func (t *Tracker) Reset() {
	clear(t.services)
	clear(t.transitions)
	clear(t.pairs)
	clear(t.lastSym)
	t.prevTask, t.prevSym, t.hasPrev = 0, "", false
	t.commands = 0
}

// pool recycles trackers across trials. A campaign allocates one
// tracker (four maps) per trial per coverage pass; under the parallel
// campaign engine that allocation shows up on the hot path, and the
// maps' buckets are perfectly reusable.
var pool = sync.Pool{New: func() any { return NewTracker() }}

// GetTracker returns a cleared tracker from the pool. Release it with
// PutTracker once every value derived from it has been copied out
// (Summary and the float metrics are plain values, so summarize-then-put
// is safe).
func GetTracker() *Tracker { return pool.Get().(*Tracker) }

// PutTracker resets the tracker and returns it to the pool. The caller
// must not retain it.
func PutTracker(t *Tracker) {
	if t == nil {
		return
	}
	t.Reset()
	pool.Put(t)
}

// Observe records one issued command (logical task, service symbol) in
// merged-pattern order.
func (t *Tracker) Observe(task int, symbol string) {
	t.commands++
	t.services[symbol]++
	prev, ok := t.lastSym[task]
	if !ok {
		prev = pfa.StartLabel
	}
	t.transitions[edge{prev, symbol}]++
	t.lastSym[task] = symbol
	if t.hasPrev && t.prevTask != task {
		t.pairs[edge{t.prevSym, symbol}]++
	}
	t.prevTask, t.prevSym, t.hasPrev = task, symbol, true
}

// Commands returns the number of observed commands.
func (t *Tracker) Commands() int { return t.commands }

// ServiceCount returns how many times a service symbol was issued.
func (t *Tracker) ServiceCount(symbol string) int { return t.services[symbol] }

// ServiceCoverage returns the fraction of the alphabet that was invoked
// at least once.
func (t *Tracker) ServiceCoverage(alphabet []string) float64 {
	if len(alphabet) == 0 {
		return 0
	}
	hit := 0
	for _, s := range alphabet {
		if t.services[s] > 0 {
			hit++
		}
	}
	return float64(hit) / float64(len(alphabet))
}

// TransitionCoverage returns the fraction of the PFA's transitions
// (projected to label→symbol edges) that the command stream exercised.
// Because every PFA state is labelled by its entering service, a
// transition is identified by (previous service, next service).
func (t *Tracker) TransitionCoverage(p *pfa.PFA) float64 {
	edges := map[edge]bool{}
	for s := 0; s < p.NumStates(); s++ {
		label := p.Label(nfa.StateID(s))
		if label == "" {
			label = pfa.StartLabel
		}
		for _, tr := range p.Transitions(nfa.StateID(s)) {
			edges[edge{label, tr.Symbol}] = true
		}
	}
	if len(edges) == 0 {
		return 0
	}
	hit := 0
	for e := range edges {
		if t.transitions[e] > 0 {
			hit++
		}
	}
	return float64(hit) / float64(len(edges))
}

// PairCount returns the number of distinct cross-task adjacent service
// pairs observed — a proxy for interleaving coverage.
func (t *Tracker) PairCount() int { return len(t.pairs) }

// Summary is a compact coverage result for reports.
type Summary struct {
	Commands    int
	Services    float64 // fraction of alphabet hit
	Transitions float64 // fraction of PFA transitions hit
	Pairs       int     // distinct cross-task pairs
}

// Summarize computes the summary against the PFA that generated the
// patterns.
func (t *Tracker) Summarize(p *pfa.PFA) Summary {
	return Summary{
		Commands:    t.commands,
		Services:    t.ServiceCoverage(p.Alphabet()),
		Transitions: t.TransitionCoverage(p),
		Pairs:       t.PairCount(),
	}
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("commands=%d service-cov=%.2f transition-cov=%.2f pairs=%d",
		s.Commands, s.Services, s.Transitions, s.Pairs)
}

// TopTransitions returns the n most frequent transitions as "edge count"
// strings, for diagnostics.
func (t *Tracker) TopTransitions(n int) []string {
	type kv struct {
		k string
		v int
	}
	var all []kv
	for k, v := range t.transitions {
		all = append(all, kv{k.from + ">" + k.to, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf("%s %d", all[i].k, all[i].v)
	}
	return out
}
