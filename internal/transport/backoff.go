package transport

import (
	"context"
	"math/rand"
	"time"
)

// The retry schedule: attempt k (0-based) sleeps
//
//	min(backoffBase * 2^k, backoffMax) * (1 ± backoffJitter)
//
// so a fleet of agents restarting together spreads its reconnect storm
// instead of hammering a recovering listener in lockstep.
const (
	backoffBase   = 25 * time.Millisecond
	backoffMax    = time.Second
	backoffJitter = 0.2
)

// backoffDelay returns the sleep before retry attempt k (0-based). rng
// may be nil, which disables jitter (used by tests pinning the raw
// schedule).
func backoffDelay(attempt int, rng *rand.Rand) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	if rng != nil {
		d = time.Duration(float64(d) * (1 + backoffJitter*(2*rng.Float64()-1)))
	}
	return d
}

// Backoff sleeps out retry attempt k's delay on the capped exponential
// schedule with jitter that every retry loop waits on — the rendezvous
// dialer, the session's epoch re-read, and a joiner's wait for
// admission — or returns ctx's error once done.
func Backoff(ctx context.Context, attempt int, rng *rand.Rand) error {
	t := time.NewTimer(backoffDelay(attempt, rng))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
