package coverage

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/nfa"
	"repro/internal/pfa"
	"repro/internal/stats"
)

func pcorePFA(t *testing.T) *pfa.PFA {
	t.Helper()
	p, err := pfa.PCore()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServiceCoverage(t *testing.T) {
	tr := NewTracker()
	tr.Observe(0, "TC")
	tr.Observe(0, "TD")
	cov := tr.ServiceCoverage([]string{"TC", "TD", "TS", "TR"})
	if cov != 0.5 {
		t.Fatalf("coverage %v", cov)
	}
	if tr.ServiceCoverage(nil) != 0 {
		t.Fatal("empty alphabet coverage nonzero")
	}
	if tr.ServiceCount("TC") != 1 {
		t.Fatal("count wrong")
	}
}

func TestTransitionCoverageFullWalk(t *testing.T) {
	p := pcorePFA(t)
	tr := NewTracker()
	// Issue every edge of Figure 5 once on a single logical task:
	// start>TC, TC>TCH, TCH>TCH, TCH>TS, TS>TR, TR>TCH, TCH>TD restarts...
	seq := []string{
		"TC", "TCH", "TCH", "TS", "TR", "TCH", "TD", // covers 7 edges
		"TC", "TS", "TR", "TS", "TR", "TD", // TC>TS, TR>TS, TR>TD
		"TC", "TY", // TC>TY
		"TC", "TCH", "TY", // TCH>TY
		"TC", "TD", // TC>TD
		"TC", "TS", "TR", "TY", // TR>TY
		"TC", "TCH", "TD", // TCH>TD (already), fine
	}
	for _, s := range seq {
		tr.Observe(0, s)
	}
	cov := tr.TransitionCoverage(p)
	if cov != 1.0 {
		t.Fatalf("transition coverage %v, want 1.0", cov)
	}
}

func TestTransitionCoveragePartial(t *testing.T) {
	p := pcorePFA(t)
	tr := NewTracker()
	tr.Observe(0, "TC")
	tr.Observe(0, "TD")
	cov := tr.TransitionCoverage(p)
	// 2 of 14 edges.
	want := 2.0 / 14.0
	if cov < want-1e-9 || cov > want+1e-9 {
		t.Fatalf("coverage %v, want %v", cov, want)
	}
}

func TestPerTaskTransitionTracking(t *testing.T) {
	tr := NewTracker()
	// Task 0: TC then TD; task 1: TC then TS. The TD must chain from
	// task 0's TC, not task 1's TS.
	tr.Observe(0, "TC")
	tr.Observe(1, "TC")
	tr.Observe(1, "TS")
	tr.Observe(0, "TD")
	if tr.transitions[edge{"TC", "TD"}] != 1 {
		t.Fatalf("transitions %v", tr.transitions)
	}
	if tr.transitions[edge{"TS", "TD"}] != 0 {
		t.Fatal("cross-task chaining")
	}
}

func TestPairCoverage(t *testing.T) {
	tr := NewTracker()
	tr.Observe(0, "TC")
	tr.Observe(1, "TC") // pair TC|TC
	tr.Observe(1, "TS") // same task: no pair
	tr.Observe(0, "TS") // pair TS|TS
	if tr.PairCount() != 2 {
		t.Fatalf("pairs %d", tr.PairCount())
	}
}

func TestSummarize(t *testing.T) {
	p := pcorePFA(t)
	tr := NewTracker()
	rng := stats.New(3)
	pat, err := p.Generate(rng, 50, pfa.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pat.Symbols {
		tr.Observe(0, s)
	}
	sum := tr.Summarize(p)
	if sum.Commands != 50 {
		t.Fatalf("commands %d", sum.Commands)
	}
	if sum.Services <= 0 || sum.Services > 1 {
		t.Fatalf("services %v", sum.Services)
	}
	if sum.Transitions <= 0 || sum.Transitions > 1 {
		t.Fatalf("transitions %v", sum.Transitions)
	}
	if !strings.Contains(sum.String(), "commands=50") {
		t.Fatalf("string %q", sum.String())
	}
}

func TestTopTransitions(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 3; i++ {
		tr.Observe(0, "TC")
		tr.Observe(0, "TD")
	}
	top := tr.TopTransitions(1)
	if len(top) != 1 {
		t.Fatalf("top %v", top)
	}
	// TD>TC appears twice, ^>TC once, TC>TD three times.
	if !strings.HasPrefix(top[0], "TC>TD 3") {
		t.Fatalf("top %v", top)
	}
	if n := len(tr.TopTransitions(100)); n != 3 {
		t.Fatalf("all transitions %d", n)
	}
}

func TestUniformVsSkewedCoverageShape(t *testing.T) {
	// The distribution-influence claim (paper future work): a uniform PD
	// reaches full transition coverage with fewer commands than a heavily
	// skewed one. Verify the shape on a fixed budget.
	uniform, err := pfa.FromRegex(pfa.PCoreRE, nil)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := pfa.FromRegex(pfa.PCoreRE, pfa.Distribution{
		pfa.StartLabel: {"TC": 1},
		"TC":           {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
		"TCH":          {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
		"TS":           {"TR": 1},
		"TR":           {"TCH": 0.97, "TS": 0.01, "TD": 0.01, "TY": 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := func(p *pfa.PFA, seed uint64) float64 {
		tr := NewTracker()
		rng := stats.New(seed)
		for i := 0; i < 10; i++ {
			pat, err := p.Generate(rng, 30, pfa.DefaultGenOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range pat.Symbols {
				tr.Observe(i, s)
			}
		}
		return tr.TransitionCoverage(p)
	}
	covUniform := cov(uniform, 1)
	covSkewed := cov(skewed, 1)
	if covUniform <= covSkewed {
		t.Fatalf("uniform coverage %.3f not above skewed %.3f", covUniform, covSkewed)
	}
}

// refTracker is the string-keyed tracker the edge-keyed one replaced,
// kept as the reference for the model test below.
type refTracker struct {
	services    map[string]int
	transitions map[string]int // "prevLabel>symbol"
	pairs       map[string]int // "symA|symB"
	lastSym     map[int]string
	prevTask    int
	prevSym     string
	hasPrev     bool
	commands    int
}

func newRefTracker() *refTracker {
	return &refTracker{
		services:    map[string]int{},
		transitions: map[string]int{},
		pairs:       map[string]int{},
		lastSym:     map[int]string{},
	}
}

func (t *refTracker) Observe(task int, symbol string) {
	t.commands++
	t.services[symbol]++
	prev, ok := t.lastSym[task]
	if !ok {
		prev = pfa.StartLabel
	}
	t.transitions[prev+">"+symbol]++
	t.lastSym[task] = symbol
	if t.hasPrev && t.prevTask != task {
		t.pairs[t.prevSym+"|"+symbol]++
	}
	t.prevTask, t.prevSym, t.hasPrev = task, symbol, true
}

func (t *refTracker) TransitionCoverage(p *pfa.PFA) float64 {
	edges := map[string]bool{}
	for s := 0; s < p.NumStates(); s++ {
		label := p.Label(nfa.StateID(s))
		if label == "" {
			label = pfa.StartLabel
		}
		for _, tr := range p.Transitions(nfa.StateID(s)) {
			edges[label+">"+tr.Symbol] = true
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

func (t *refTracker) TopTransitions(n int) []string {
	type kv struct {
		k string
		v int
	}
	var all []kv
	for k, v := range t.transitions {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	n = min(n, len(all))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = fmt.Sprintf("%s %d", all[i].k, all[i].v)
	}
	return out
}

// TestTrackerMatchesStringKeyedReference replays random symbol streams
// through both trackers. The alphabet mixes the PFA's symbols with ones
// outside it, and "TC"/"TCH" make one label a prefix of another, which
// is where ordering by "prev>sym" text and by its parts could differ.
func TestTrackerMatchesStringKeyedReference(t *testing.T) {
	machines := map[string]*pfa.PFA{"pcore": pcorePFA(t)}
	if m, err := pfa.FromRegex("TC (TS TR)+ TD$", nil); err == nil {
		machines["suspend-resume"] = m
	} else {
		t.Fatal(err)
	}
	alphabet := []string{"TC", "TCH", "TD", "TS", "TR", "TY", "T", "X"}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.New(seed)
		got, want := NewTracker(), newRefTracker()
		tasks := 1 + rng.Intn(5)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			task, sym := rng.Intn(tasks), alphabet[rng.Intn(len(alphabet))]
			got.Observe(task, sym)
			want.Observe(task, sym)
		}
		if got.PairCount() != len(want.pairs) {
			t.Fatalf("seed %d: pairs %d, reference %d", seed, got.PairCount(), len(want.pairs))
		}
		for name, p := range machines {
			if g, w := got.TransitionCoverage(p), want.TransitionCoverage(p); g != w {
				t.Fatalf("seed %d %s: transition coverage %v, reference %v", seed, name, g, w)
			}
			sum := got.Summarize(p)
			ref := Summary{
				Commands:    want.commands,
				Services:    got.ServiceCoverage(p.Alphabet()),
				Transitions: want.TransitionCoverage(p),
				Pairs:       len(want.pairs),
			}
			if sum != ref {
				t.Fatalf("seed %d %s: summary %+v, reference %+v", seed, name, sum, ref)
			}
		}
		for _, n := range []int{0, 1, 3, 100} {
			if g, w := got.TopTransitions(n), want.TopTransitions(n); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: TopTransitions(%d) %q, reference %q", seed, n, g, w)
			}
		}
	}
}

// Observe on a warmed tracker must not allocate: the transition and
// pair keys are built without concatenation.
func TestObserveDoesNotAllocate(t *testing.T) {
	tr := NewTracker()
	stream := []struct {
		task int
		sym  string
	}{{0, "TC"}, {1, "TC"}, {0, "TCH"}, {1, "TS"}, {1, "TR"}, {0, "TD"}}
	observeAll := func() {
		for _, o := range stream {
			tr.Observe(o.task, o.sym)
		}
	}
	observeAll()
	observeAll() // every key the repeated stream uses is now present
	if allocs := testing.AllocsPerRun(1000, observeAll); allocs != 0 {
		t.Fatalf("observing %d commands allocates %v times", len(stream), allocs)
	}
}
