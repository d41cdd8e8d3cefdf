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
