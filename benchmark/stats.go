package main

import (
	"math"
	"sort"
)

// Latencies are kept as raw samples and sorted: obs.Histogram's buckets
// are a factor of two wide, which is the resolution this harness exists
// to get away from.

// percentile returns the q-quantile (0 < q <= 1) of sorted by nearest
// rank; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy returns the samples in ascending order, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// timed is one sample with the time it belongs to (seconds from the start
// of its phase): the due time in an open loop, the send time otherwise.
type timed struct {
	at    float64
	value float64
}

// windowedQuantile splits [0, span) into windows equal parts, takes the
// q-quantile of each window's samples and returns the median of those:
// one stall lands in one window instead of deciding the whole run's tail.
// Windows without samples are skipped.
func windowedQuantile(samples []timed, span float64, windows int, q float64) float64 {
	if windows < 1 || span <= 0 {
		return 0
	}
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int(s.at / span * float64(windows))
		if w < 0 || w >= windows {
			continue
		}
		buckets[w] = append(buckets[w], s.value)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		per = append(per, percentile(b, q))
	}
	return median(per)
}

// spread is the interquartile range of v as a share of its median, the
// run-to-run measure the driver and -compare both use. It needs at least
// two values; ok is false otherwise or when the median is 0.
func spread(v []float64) (share float64, ok bool) {
	if len(v) < 2 {
		return 0, false
	}
	s := sortedCopy(v)
	q1, q3 := quartiles(s)
	m := median(s)
	if m == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(m), true
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method) on a sorted slice of at least two values.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		n := len(sorted)
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(0.25), at(0.75)
}
