package stats

import "math"

// Interval is a mean with a symmetric confidence half-width, the summary
// RunReplicasCtx-style multi-replica experiments report per metric.
type Interval struct {
	// Mean is the sample mean across replicas.
	Mean float64 `json:"mean"`
	// HalfWidth is the half-width of the confidence interval; the interval
	// is [Mean-HalfWidth, Mean+HalfWidth]. Zero when N < 2 (a single
	// replica carries no variability information).
	HalfWidth float64 `json:"half_width"`
	// N is the number of observations the interval is built from.
	N int `json:"n"`
}

// Lo returns the lower confidence bound.
func (iv Interval) Lo() float64 { return iv.Mean - iv.HalfWidth }

// Hi returns the upper confidence bound.
func (iv Interval) Hi() float64 { return iv.Mean + iv.HalfWidth }

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo() && x <= iv.Hi() }

// tQuantile975 holds the 97.5% quantile of Student's t distribution for
// 1..30 degrees of freedom (two-sided 95% confidence). Beyond 30 the
// normal quantile 1.96 is an adequate approximation.
var tQuantile975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile975 returns the 97.5% Student-t quantile for df degrees of
// freedom (1.96 for df > 30, NaN for df < 1).
func TQuantile975(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if df <= len(tQuantile975) {
		return tQuantile975[df-1]
	}
	return 1.96
}

// MeanCI95 returns the sample mean of xs with a two-sided 95% Student-t
// confidence half-width. With fewer than two observations the half-width
// is zero; an empty sample yields a NaN mean.
func MeanCI95(xs []float64) Interval {
	iv := Interval{Mean: Mean(xs), N: len(xs)}
	if len(xs) < 2 {
		return iv
	}
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	iv.HalfWidth = TQuantile975(len(xs)-1) * se
	return iv
}
