package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples a reported percentile must leave above it:
// a p99 over fewer than 1000 samples would rest on one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs in
// milliseconds. It refuses when fewer than minBeyond samples lie above the
// chosen rank, so a reported tail always has that many samples behind it.
func percentile(xs []time.Duration, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	if beyond := n - 1 - rank; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	sorted := append([]time.Duration(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[rank]), nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deck deals indices 0..n-1 in rounds, each round in a fresh seeded order,
// so every text of a pool is asked equally often and only the order
// depends on the seed.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}
