package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples of an n-sample set that rank strictly above
// its nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQ returns the highest of the conventional tail percentiles that
// keeps at least minBeyond of n samples beyond it, capped at want; 0.5
// when even the median has too few.
func tailQ(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if q <= want && beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 nearest-rank quantile of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// sliceRate is a closed-loop slice's completion rate: its requests over
// the time from the slice start to the last completion (0 without any).
func sliceRate(ss []sample) float64 {
	var last time.Duration
	for _, s := range ss {
		last = max(last, s.done)
	}
	if last <= 0 {
		return 0
	}
	return float64(len(ss)) / last.Seconds()
}

// backlogGrowing reports whether the generator fell progressively behind
// its schedule during an open-loop phase: late[i] is how long request i
// (in schedule order, scheduled at sched[i]) waited past its due time
// before it was sent. A stable system keeps lateness flat; an overloaded one accumulates
// it at (1 - capacity/rate) seconds per second. The rule compares the
// median lateness of the phase's last third with its first third and calls
// the backlog growing when it rose by more than 5% of the time between
// them and by more than a millisecond.
func backlogGrowing(sched, late []time.Duration) bool {
	n := len(late)
	if n < 6 {
		return false
	}
	third := n / 3
	first, last := make([]float64, third), make([]float64, third)
	for i := 0; i < third; i++ {
		first[i] = late[i].Seconds()
		last[i] = late[n-third+i].Seconds()
	}
	span := (sched[n-1-third/2] - sched[third/2]).Seconds()
	rise := median(last) - median(first)
	return rise > 0.001 && rise > 0.05*span
}
