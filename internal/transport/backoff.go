package transport

import (
	"context"
	"math/rand"
	"time"
)

// Backoff is a capped exponential retry schedule with jitter, used by
// the rendezvous dialer. Attempt k (0-based) sleeps
//
//	min(Base * Factor^k, Max) * (1 ± Jitter)
//
// so a fleet of agents restarting together spreads its reconnect storm
// instead of hammering a recovering listener in lockstep.
type Backoff struct {
	// Base is the first retry delay. Default 25ms.
	Base time.Duration
	// Max caps the delay growth. Default 1s.
	Max time.Duration
	// Factor multiplies the delay each attempt. Default 2. Values <= 1
	// are clamped to 1 (constant cadence).
	Factor float64
	// Jitter is the ± fraction of randomization applied to each delay,
	// in [0, 1). Default 0.2.
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		b.Jitter = 0.2
	}
	return b
}

// delay returns the sleep before retry attempt k (0-based). rng may be
// nil, which disables jitter (used by tests pinning the raw schedule).
func (b Backoff) delay(attempt int, rng *rand.Rand) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if rng != nil && b.Jitter > 0 {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Wait sleeps out attempt k's delay, or returns ctx's error once done.
func (b Backoff) Wait(ctx context.Context, attempt int, rng *rand.Rand) error {
	t := time.NewTimer(b.delay(attempt, rng))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
