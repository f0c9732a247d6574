package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile, so one outlier cannot set the tail on its own.
const tailMin = 10

// tail is the highest percentile, in steps of 0.1, that has at least
// tailMin samples strictly above its nearest-rank value.
type tail struct {
	Value  float64
	Pct    float64 // e.g. 85.7
	Beyond int     // samples beyond Value's rank
	N      int
	OK     bool // false when there are too few samples for any tail
}

func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{N: n}
	if n <= tailMin {
		return t
	}
	s := sorted(xs)
	// p is in tenths of a percent; nearest rank r = ceil(p·n/1000).
	for p := 999; p >= 500; p-- {
		r := (p*n + 999) / 1000
		if n-r >= tailMin {
			t.Value, t.Pct, t.Beyond, t.OK = s[r-1], float64(p)/10, n-r, true
			return t
		}
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// idleFrac is the share of the cell workers' capacity a sweep left
// unused: 1 − Σ cell time / (wall × parallelism). It grows when a few
// long cells keep one worker busy after the others have run dry.
func idleFrac(wall time.Duration, cellMS []float64, parallelism int) float64 {
	capacity := ms(wall) * float64(parallelism)
	if capacity <= 0 {
		return 0
	}
	return 1 - sum(cellMS)/capacity
}

// holdMS is how long a lease stayed open beyond the cell's own
// execution: the wire, the completion linger and the hub's bookkeeping.
func holdMS(granted, completed time.Time, cellWallMS float64) float64 {
	return ms(completed.Sub(granted)) - cellWallMS
}
