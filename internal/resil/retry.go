package resil

import (
	"time"

	"fedwf/internal/simlat"
)

// StepRetryBackoff is the simlat step label retry backoff time is charged
// under, so the Fig. 6-style breakdowns show what fault handling costs.
const StepRetryBackoff = "Retry backoff"

// StepFaultInjection labels injected latency spikes and hangs.
const StepFaultInjection = "Fault injection"

// RetryPolicy configures retries of transient application-system
// failures. Backoff is charged to the statement's virtual clock, so
// retries lengthen the statement's simulated latency exactly as they
// would a real one.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values <= 1 disable retries.
	MaxAttempts int
	// BaseBackoff is the wait before the first retry (paper time).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means no cap.
	MaxBackoff time.Duration
	// Multiplier is the exponential factor between retries (default 2).
	Multiplier float64
	// JitterFrac perturbs each backoff by up to ±JitterFrac of itself,
	// deterministically derived from Seed, system, and attempt.
	JitterFrac float64
	// Budget bounds the total retries one statement may spend across all
	// its federated-function calls; 0 means unlimited.
	Budget int
	// Seed drives the deterministic jitter.
	Seed uint64
}

// DefaultRetryPolicy returns the calibrated defaults: 3 attempts, 5ms
// base backoff doubling to at most 50ms, 20% jitter, 16 retries per
// statement.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 5 * simlat.PaperMS,
		MaxBackoff:  50 * simlat.PaperMS,
		Multiplier:  2,
		JitterFrac:  0.2,
		Budget:      16,
	}
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// splitmix64 is a tiny deterministic hash; jitter must not depend on
// shared PRNG state so concurrent statements stay reproducible.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Backoff returns the wait before the retry-th retry (retry >= 1) of a
// call against system: exponential growth with deterministic jitter.
func (p RetryPolicy) Backoff(retry int, system string) time.Duration {
	if retry < 1 || p.BaseBackoff <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := float64(p.BaseBackoff)
	for i := 1; i < retry; i++ {
		d *= mult
		if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	if p.JitterFrac > 0 {
		h := splitmix64(p.Seed ^ hashString(system) ^ uint64(retry)<<32)
		// Map to [-1, 1).
		u := float64(h>>11)/float64(1<<53)*2 - 1
		d += d * p.JitterFrac * u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
