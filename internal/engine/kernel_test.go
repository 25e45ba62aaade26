package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	k := &kernel{}
	var order []int
	k.After(3, func() { order = append(order, 3) })
	k.After(1, func() { order = append(order, 1) })
	k.After(2, func() { order = append(order, 2) })
	k.Run()
	if k.Now() != 3 {
		t.Fatalf("final time = %v, want 3", k.Now())
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTiesBreakBySchedulingOrder(t *testing.T) {
	k := &kernel{}
	var order []int
	for i := 0; i < 5; i++ {
		k.At(1, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

// Property: whatever the schedule, including events scheduled from inside
// events, the heap fires in (time, scheduling order) — the order every
// golden paper table depends on.
func TestHeapFiresInTimeThenSchedulingOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := &kernel{}
		type fired struct {
			at  vtime
			seq int
		}
		var log []fired
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			seq++
			s := seq
			at := k.Now() + vtime(rng.Intn(4)) // few distinct times: many ties
			k.At(at, func() {
				log = append(log, fired{k.Now(), s})
				if depth < 2 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
			})
		}
		for i := 0; i < 64; i++ {
			schedule(0)
		}
		k.Run()
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				return false
			}
		}
		return len(log) == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := &kernel{}
	var hits []vtime
	k.After(1, func() {
		hits = append(hits, k.Now())
		k.After(1, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := &kernel{}
	k.After(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(1, func() {})
	})
	k.Run()
}

func TestResourceSerializesJobs(t *testing.T) {
	k := &kernel{}
	r := resource{k: k}
	var ends []vtime
	// Three back-to-back 2s jobs submitted at t=0 should finish at 2, 4, 6.
	for i := 0; i < 3; i++ {
		r.Use(2, func() { ends = append(ends, k.Now()) })
	}
	k.Run()
	if len(ends) != 3 || ends[0] != 2 || ends[1] != 4 || ends[2] != 6 {
		t.Fatalf("ends = %v", ends)
	}
	if r.FreeAt() != 6 {
		t.Fatalf("FreeAt = %v, want 6", r.FreeAt())
	}
}

func TestResourceIdleGapThenUse(t *testing.T) {
	k := &kernel{}
	r := resource{k: k}
	var end vtime
	k.After(10, func() {
		r.Use(1, func() { end = k.Now() })
	})
	k.Run()
	if end != 11 {
		t.Fatalf("end = %v, want 11 (resource must not start before now)", end)
	}
}

// Property: a resource's completion time for n sequential jobs equals the
// sum of their durations when submitted at t=0, regardless of order.
func TestResourceConservationProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		k := &kernel{}
		r := resource{k: k}
		var total vtime
		for _, d := range durs {
			dur := vtime(d) / 16
			total += dur
			r.Use(dur, nil)
		}
		k.Run()
		return r.FreeAt() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []vtime {
		k := &kernel{}
		r := resource{k: k}
		var log []vtime
		for i := 0; i < 10; i++ {
			d := vtime(i%3) + 1
			k.After(vtime(i)/2, func() {
				r.Use(d, func() { log = append(log, k.Now()) })
			})
		}
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timeline diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
