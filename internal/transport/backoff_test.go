package transport

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// The raw schedule (no jitter) must grow geometrically from Base and
// saturate at Max.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond, Factor: 2}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		160 * time.Millisecond,
		160 * time.Millisecond, // capped
		160 * time.Millisecond,
	}
	for k, w := range want {
		if got := b.delay(k, nil); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", k, got, w)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if got := b.delay(0, nil); got != 25*time.Millisecond {
		t.Fatalf("default base: %v, want 25ms", got)
	}
	if got := b.delay(100, nil); got != time.Second {
		t.Fatalf("default cap: %v, want 1s", got)
	}
}

// Jitter must stay inside ±Jitter of the raw delay and actually vary.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	raw := b.delay(2, nil) // 400ms
	lo := time.Duration(float64(raw) * 0.8)
	hi := time.Duration(float64(raw) * 1.2)
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		d := b.delay(2, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays in 100 draws", len(seen))
	}
}

// Factor <= 1 degrades to a constant cadence rather than shrinking.
func TestBackoffNonGrowingFactorClamped(t *testing.T) {
	b := Backoff{Base: 30 * time.Millisecond, Max: time.Second, Factor: 0.5}
	for k := 0; k < 5; k++ {
		if got := b.delay(k, nil); got < 30*time.Millisecond {
			t.Fatalf("attempt %d: delay %v shrank below base", k, got)
		}
	}
}

// Wait is the schedule's one sleeper: it returns nil once the attempt's
// delay has passed, and ctx's error at once when ctx is done first.
func TestBackoffWaitObservesContext(t *testing.T) {
	if err := (Backoff{Base: time.Millisecond}).Wait(context.Background(), 0, nil); err != nil {
		t.Fatalf("an undisturbed wait returned %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := Backoff{Base: time.Hour, Max: time.Hour}.Wait(ctx, 0, nil)
	if !errors.Is(err, context.Canceled) || time.Since(start) > time.Second {
		t.Fatalf("wait under a cancelled context returned %v after %v", err, time.Since(start))
	}
}
