package transport

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// The schedule is constant: Backoff takes no settings. Each case that set one
// checked a behaviour that is gone with it — a custom Base and Max
// shaping the doubling (now pinned at 25 ms to 1 s below), zero fields
// falling back to defaults (there is nothing left to default), a custom
// Jitter fraction (now ±20 %), and a Factor ≤ 1 clamped to a constant
// cadence (the factor is always 2).

// The raw schedule (no jitter) grows geometrically from 25 ms and
// saturates at 1 s.
func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for k, w := range want {
		if got := backoffDelay(k, nil); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", k, got, w)
		}
	}
}

// The first delay and the cap, far past where the doubling stops.
func TestBackoffDefaults(t *testing.T) {
	if got := backoffDelay(0, nil); got != 25*time.Millisecond {
		t.Fatalf("base: %v, want 25ms", got)
	}
	if got := backoffDelay(100, nil); got != time.Second {
		t.Fatalf("cap: %v, want 1s", got)
	}
}

// Jitter must stay inside ±20% of the raw delay and actually vary.
func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := backoffDelay(2, nil) // 100ms
	lo := time.Duration(float64(raw) * 0.8)
	hi := time.Duration(float64(raw) * 1.2)
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		d := backoffDelay(2, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays in 100 draws", len(seen))
	}
}

// Wait is the schedule's one sleeper: it returns nil once the attempt's
// delay has passed, and ctx's error at once when ctx is done first.
func TestBackoffWaitObservesContext(t *testing.T) {
	if err := Backoff(context.Background(), 0, nil); err != nil {
		t.Fatalf("an undisturbed wait returned %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := Backoff(ctx, 100, nil)
	if !errors.Is(err, context.Canceled) || time.Since(start) > 500*time.Millisecond {
		t.Fatalf("wait under a cancelled context returned %v after %v", err, time.Since(start))
	}
}
