package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so p50 needs 20 samples and
// p99 needs 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples
// and whether the percentile rule allows reporting it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], n-rank >= minBeyond
}

func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

func sumOf(samples []float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sumOf(samples) / float64(len(samples))
}

// classMedianGeo is the geometric mean, over query classes, of each
// class's median latency: every class weighs the same however fast it
// is, as the paper averages relative runtimes over the SSB queries.
func classMedianGeo(byClass map[string][]float64) float64 {
	if len(byClass) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range byClass {
		logSum += math.Log(median(v))
	}
	return math.Exp(logSum / float64(len(byClass)))
}

// median of a small set of repeated measurements (set-up times, kernel
// repetitions); the percentile rule does not apply to these.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// unionLen is the total length covered by a set of [start, end]
// intervals, overlaps counted once.
func unionLen(iv [][2]int64) int64 {
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, hi int64
	for i, v := range s {
		if i == 0 || v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// op is one scheduled query of an open-loop workload.
type op struct {
	due   time.Duration // offset from the start of the timed phase
	query string
}

// poissonArrivals returns n arrival offsets of a Poisson process over
// [0, span), conditioned on n arrivals: n sorted uniform draws. Fixing
// n keeps the offered load of every seed identical while the arrival
// pattern stays Poisson.
func poissonArrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readSchedule is the open-loop read mix: rate*span arrivals carrying
// the queries in equal shares, in seeded random order. Equal shares
// keep the mix of every seed the same, so the latency percentiles of
// two seeds differ by arrival pattern, not by which queries were drawn.
func readSchedule(seed int64, rate float64, span time.Duration, queries []string) []op {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * span.Seconds()))
	dues := poissonArrivals(rng, n, span)
	order := rng.Perm(n)
	ops := make([]op, n)
	for i, d := range dues {
		ops[i] = op{due: d, query: queries[order[i]%len(queries)]}
	}
	return ops
}
