package sim

import (
	"math"
	"math/rand"
)

// Dist is a distribution over durations, used by cost models to add
// realistic variability to simulated latencies. Implementations must be
// deterministic given the engine's seeded PRNG.
type Dist interface {
	Sample(r *rand.Rand) Duration
}

// Const is a degenerate distribution that always returns its value.
type Const Duration

// Sample implements Dist.
func (c Const) Sample(*rand.Rand) Duration { return Duration(c) }

// Uniform samples uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi Duration
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + Duration(r.Int63n(int64(u.Hi-u.Lo)+1))
}

// Normal samples a normal distribution clamped at Min (default 0) so a
// latency can never be negative.
type Normal struct {
	Mean, Stddev Duration
	Min          Duration
}

// Sample implements Dist.
func (n Normal) Sample(r *rand.Rand) Duration {
	v := Duration(float64(n.Mean) + r.NormFloat64()*float64(n.Stddev))
	if v < n.Min {
		return n.Min
	}
	return v
}

// Exponential samples an exponential distribution with the given mean,
// shifted by Base. Useful for queueing-style tails.
type Exponential struct {
	Base, Mean Duration
}

// Sample implements Dist.
func (e Exponential) Sample(r *rand.Rand) Duration {
	return e.Base + Duration(r.ExpFloat64()*float64(e.Mean))
}

// LogNormal samples exp(N(mu, sigma)) scaled so the median is Median.
// Heavy-tailed: the right model for fork/exec and disk-seek latencies.
type LogNormal struct {
	Median Duration
	Sigma  float64 // shape; 0.25 is mild, 1.0 is heavy
}

// Sample implements Dist.
func (l LogNormal) Sample(r *rand.Rand) Duration {
	return Duration(float64(l.Median) * math.Exp(r.NormFloat64()*l.Sigma))
}

// Empirical samples uniformly among recorded observations, reproducing an
// arbitrary measured distribution.
type Empirical struct {
	Samples []Duration
}

// Sample implements Dist.
func (e Empirical) Sample(r *rand.Rand) Duration {
	if len(e.Samples) == 0 {
		return 0
	}
	return e.Samples[r.Intn(len(e.Samples))]
}

// Mixture samples component i with probability Weights[i] (weights need
// not sum to 1; they are normalised). It models bimodal behaviour such as
// "fast path unless the page cache misses".
type Mixture struct {
	Weights []float64
	Parts   []Dist
}

// Sample implements Dist.
func (m Mixture) Sample(r *rand.Rand) Duration {
	if len(m.Parts) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range m.Weights {
		if x < w {
			return m.Parts[i].Sample(r)
		}
		x -= w
	}
	return m.Parts[len(m.Parts)-1].Sample(r)
}

// Scaled multiplies every sample of the inner distribution by Factor.
// Platform profiles use it to derive x86 costs from ARM costs.
type Scaled struct {
	Inner  Dist
	Factor float64
}

// Sample implements Dist.
func (s Scaled) Sample(r *rand.Rand) Duration {
	return Duration(float64(s.Inner.Sample(r)) * s.Factor)
}
