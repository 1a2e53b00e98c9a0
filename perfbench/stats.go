package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail quantile read off fewer points than this is a guess, not a
// measurement.
const minTail = 10

var errTooFewSamples = errors.New("too few samples beyond the percentile")

// quantile is one reported percentile together with the sample count it
// was read from.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// and the sample count. It refuses, with errTooFewSamples, when fewer than
// minTail samples lie beyond the rank.
func percentile(samples []float64, q float64) (quantile, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return quantile{N: n}, fmt.Errorf("percentile q=%v of %d samples: %w", q, n, errTooFewSamples)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - rank; beyond < minTail {
		return quantile{N: n}, fmt.Errorf("percentile q=%v of %d samples has %d beyond it (want ≥ %d): %w",
			q, n, beyond, minTail, errTooFewSamples)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return quantile{Value: sorted[rank], N: n}, nil
}

// median is the middle of samples (the mean of the two middle values for
// an even count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean is the arithmetic mean of samples; 0 for none.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio is num/den, or 0 when there is nothing to divide by (a layer the
// workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
