package main

import (
	"encoding/json"
	"fmt"
)

// The specs. Each is a suite spec the benchmark generates from its
// seed; the program under test receives only the spec bytes. longtail
// and shortcells are the benchmark's workloads; the fleet spec is what
// every traced run's fleet probe submits to a hub. The shapes (cell
// counts, and which layer carries the work) are pinned by
// TestWorkloadCellCounts.

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"longtail", "shortcells"}

// wantCells is each spec's expanded plan size.
var wantCells = map[string]int{"longtail": 70, "shortcells": 162, "fleet": 99}

// specSeed maps the benchmark's --seed and a repetition index onto the
// spec's seed field. The spec folds it into every cell's derived seed,
// so each repetition of a run gives every cell new random choices while
// the matrix keeps its shape, and the same --seed always gives the same
// specs. splitmix64 spreads the inputs; 0 is remapped because the
// suite treats a zero seed as unset.
func specSeed(seed int64, rep int) uint64 {
	z := uint64(seed)<<8 + uint64(rep) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

type obj = map[string]any

// specJSON renders the workload's spec for repetition rep of a run at
// seed.
func specJSON(name string, seed int64, rep int) ([]byte, error) {
	var spec obj
	switch name {
	case "longtail":
		// A paper-sweep-shaped matrix: every tool over the five paper
		// workloads. The contest and pct cells on the philosophers and
		// inversion workloads run their bug-free trials to completion and
		// carry most of the cell time, so a few long cells set the wall.
		spec = obj{
			"name": "bench-longtail", "trials": 10, "keep_going": true,
			"cell_parallelism": 2,
			"workloads": []obj{
				{"name": "quicksort", "seed": 5, "gc_every": 4, "gc_leak_every": 2},
				{"name": "philosophers", "rounds": 4000},
				{"name": "ordered-philosophers", "rounds": 4000},
				{"name": "prodcons", "items": 10},
				{"name": "inversion", "hog_bursts": 4000, "misplace_priority_every": 3},
			},
			"ops":    []string{"roundrobin", "random"},
			"points": []obj{{"n": 4, "s": 12}, {"n": 8, "s": 16}},
			"pds":    []obj{{"name": "figure5", "builtin": "pcore"}},
			"tools":  paperTools(128, 3),
		}
	case "shortcells":
		// Many short co-simulation cells: the adaptive pipeline (PFA
		// generation, merging, committer, detector) does the work and
		// no cell is long enough to leave a scheduling tail.
		spec = obj{
			"name": "bench-shortcells", "trials": 40, "keep_going": true,
			"cell_parallelism": 2,
			"workloads": []obj{
				{"name": "quicksort", "seed": 5, "gc_every": 4, "gc_leak_every": 2},
				{"name": "prodcons", "items": 10},
				{"name": "inversion", "hog_bursts": 4000, "misplace_priority_every": 3},
			},
			"ops":    []string{"roundrobin", "random", "cyclic", "priority"},
			"points": []obj{{"n": 4, "s": 12}, {"n": 8, "s": 16}, {"n": 16, "s": 24}},
			"pds":    []obj{{"name": "figure5", "builtin": "pcore"}, {"name": "uniform", "builtin": "uniform"}},
			"tools": []obj{
				{"name": "adaptive"},
				{"name": "adaptive", "label": "adaptive-refine", "refine": true, "alpha": 0.5, "window": 4},
				{"name": "chess", "preemption_bound": 1, "max_schedules": 128},
			},
		}
	case "fleet":
		// Many cheap cells: compute is small, so the hub's queueing, the
		// dispatch wire and the store dominate a fleet sweep.
		spec = obj{
			"name": "bench-fleet", "trials": 2, "max_steps": 100000,
			"cell_parallelism": 2,
			"workloads": []obj{
				{"name": "quicksort", "seed": 5},
				{"name": "spin"},
				{"name": "prodcons", "items": 10},
			},
			"ops":    []string{"roundrobin", "random", "cyclic", "priority"},
			"points": []obj{{"n": 2, "s": 4}, {"n": 4, "s": 8}, {"n": 6, "s": 8}},
			"pds":    []obj{{"name": "figure5", "builtin": "pcore"}, {"name": "uniform", "builtin": "uniform"}},
			"tools": []obj{
				{"name": "adaptive"},
				{"name": "chess", "max_schedules": 4},
				{"name": "pct", "depth": 2},
			},
		}
	default:
		return nil, fmt.Errorf("unknown spec %q (want longtail|shortcells|fleet)", name)
	}
	spec["seed"] = specSeed(seed, rep)
	return json.Marshal(spec)
}

// paperTools is the paper-sweep tool arm: pTest with and without
// refinement against the ConTest-, CHESS- and PCT-style baselines.
func paperTools(maxSchedules, depth int) []obj {
	return []obj{
		{"name": "adaptive"},
		{"name": "adaptive", "label": "adaptive-refine", "refine": true, "alpha": 0.5, "window": 4},
		{"name": "contest", "noise_p": 0.2},
		{"name": "chess", "preemption_bound": 1, "max_schedules": maxSchedules},
		{"name": "pct", "depth": depth},
	}
}
