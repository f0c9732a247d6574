package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{20, 50.0, 10, 10},
		{70, 85.7, 60, 10},
		{99, 89.8, 89, 10},
		{1000, 99.0, 990, 10},
	} {
		got := tailOf(seq(tc.n))
		if !got.OK || got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("tailOf(1..%d) = %+v, want p%.1f = %v with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
		// One step further up the percentiles leaves fewer than ten beyond.
		p := int(tc.pct*10+0.5) + 1
		if r := (p*tc.n + 999) / 1000; tc.n-r >= tailMin {
			t.Errorf("n=%d: p%.1f still has %d beyond; the tail is not the highest", tc.n, float64(p)/10, tc.n-r)
		}
	}
	for _, n := range []int{0, 1, 10, 19} {
		if got := tailOf(seq(n)); got.OK {
			t.Errorf("tailOf(%d samples) = %+v, want no tail", n, got)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "suite", Start: 0, End: 10 * ms},
		// Overlapping children, and one that runs past its parent.
		{ID: 2, Parent: 1, Layer: "cell", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Layer: "cell", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Layer: "cell", Start: 8 * ms, End: 12 * ms},
		{ID: 5, Parent: 4, Layer: "store", Start: 9 * ms, End: 10 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"suite": 10*ms - (4*ms + 2*ms), // covered: [1,5] ∪ [8,10]
		"cell":  2*ms + 3*ms + (4*ms - 1*ms),
		"store": 1 * ms,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestIdleFracAndHoldArithmetic(t *testing.T) {
	if got := idleFrac(10*time.Millisecond, []float64{5, 5, 6}, 2); got < 0.1999 || got > 0.2001 {
		t.Errorf("idleFrac = %v, want 0.2 (16 ms of cells in 2 × 10 ms)", got)
	}
	if got := idleFrac(10*time.Millisecond, []float64{10, 10}, 2); got != 0 {
		t.Errorf("idleFrac of a fully busy sweep = %v, want 0", got)
	}
	t0 := time.Unix(100, 0)
	if got := holdMS(t0, t0.Add(30*time.Millisecond), 12); got != 18 {
		t.Errorf("holdMS = %v, want 18 (30 ms open, 12 ms executing)", got)
	}
}

// TestWorkloadCellCounts pins each workload's shape: a later edit to a
// spec generator cannot quietly change the cell count, at any seed.
func TestWorkloadCellCounts(t *testing.T) {
	want := map[string]int{"longtail": 70, "shortcells": 162, "fleet": 99}
	for name, n := range want {
		if wantCells[name] != n {
			t.Errorf("wantCells[%s] = %d, want %d", name, wantCells[name], n)
		}
		for _, seed := range []int64{defaultSeed, 0, -7, 12345} {
			for rep := 0; rep < 3; rep++ {
				data, err := specJSON(name, seed, rep)
				if err != nil {
					t.Fatal(err)
				}
				spec, err := parseSpec(data)
				if err != nil {
					t.Fatalf("%s seed %d rep %d: %v", name, seed, rep, err)
				}
				if got := len(spec.Expand()); got != n {
					t.Errorf("%s seed %d rep %d expands to %d cells, want %d", name, seed, rep, got, n)
				}
			}
		}
	}
}

func TestSpecsDependOnlyOnSeedAndRep(t *testing.T) {
	seen := map[uint64]string{}
	for _, seed := range []int64{0, 1, 2, -1} {
		for rep := 0; rep < 8; rep++ {
			s := specSeed(seed, rep)
			if s != specSeed(seed, rep) || s == 0 {
				t.Fatalf("specSeed(%d, %d) is unstable or zero", seed, rep)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("specSeed(%d, %d) repeats %s", seed, rep, prev)
			}
			seen[s] = "an earlier seed"
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sortedCopy := func(xs []string) []string {
		out := slices.Clone(xs)
		slices.Sort(out)
		return out
	}
	if got, want := names(b.Workloads), sortedCopy(workloadNames); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	if got, want := names(b.EndToEnd), sortedCopy(endToEndNames); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", got, want)
	}
	if got, want := names(b.PerLayer), sortedCopy(perLayerNames()); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", got, want)
	}
}

// TestPinnedDigests runs repetition 0 of each workload at the default
// seed and checks its canonical report against the pinned digest.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's sweep")
	}
	for name := range pinnedDigests {
		data, err := specJSON(name, defaultSeed, 0)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := parseSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := localSweep(context.Background(), spec, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := canonical(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(canon); got != pinnedDigests[name] {
			t.Errorf("%s: canonical report digest %s, pinned %s", name, got, pinnedDigests[name])
		}
	}
}

func TestDecomposedTrialMatchesAdaptiveTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every adaptive trial of the shortcells plan")
	}
	trials, err := adaptiveTrials(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 72 {
		t.Errorf("decomposed %d trials, want the 72 plain adaptive cells of shortcells", len(trials))
	}
}
