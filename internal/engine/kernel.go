package engine

// vtime is virtual time in seconds.
type vtime float64

// event is a scheduled callback.
type event struct {
	at  vtime
	seq int64
	fn  func()
}

// before orders events by time, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// kernel is the discrete-event scheduler every simulated run executes on.
// Events at equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so a configuration always
// replays exactly the same timeline. The zero value is a kernel with the
// clock at 0.
type kernel struct {
	now vtime
	seq int64
	// queue is a binary min-heap on (at, seq), held by value: scheduling
	// an event allocates nothing beyond the slice's growth, and both sifts
	// move a hole rather than swapping, one write per level.
	queue []event
}

// Now returns the current virtual time.
func (k *kernel) Now() vtime { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a logic error in the caller's timeline construction.
func (k *kernel) At(t vtime, fn func()) {
	if t < k.now {
		panic("engine: scheduling event in the past")
	}
	k.seq++
	e := event{at: t, seq: k.seq, fn: fn}
	k.queue = append(k.queue, e)
	q := k.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (k *kernel) After(d vtime, fn func()) {
	if d < 0 {
		panic("engine: negative delay")
	}
	k.At(k.now+d, fn)
}

// Run executes events until the queue is empty.
func (k *kernel) Run() {
	for len(k.queue) > 0 {
		e := k.pop()
		k.now = e.at
		e.fn()
	}
}

// pop removes and returns the earliest event.
func (k *kernel) pop() event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	e := q[n]
	q[n] = event{} // drop the callback's reference
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && q[r].before(&q[child]) {
				child = r
			}
			if !q[child].before(&e) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = e
	}
	k.queue = q
	return top
}

// resource is an exclusive, FIFO-serialized facility in virtual time — a
// NIC direction, a server's aggregation stream, a GPU. A job begins when
// all previously submitted work has drained (or now, if the resource is
// idle) and occupies the resource for its duration.
//
// This is what makes the paper's parameter-server hot spot (§3.1) emerge:
// a server machine whose egress NIC must ship w(N−1) bytes of one big
// variable serializes those transfers, while AllReduce's ring spreads w/N
// chunks across all NICs.
type resource struct {
	k      *kernel
	freeAt vtime
}

// Use enqueues a job of the given duration and schedules done (if non-nil)
// at its completion. A negative duration panics; a zero duration claims
// the queue position without occupying time.
func (r *resource) Use(dur vtime, done func()) {
	if dur < 0 {
		panic("engine: negative resource duration")
	}
	start := r.freeAt
	if now := r.k.Now(); start < now {
		start = now
	}
	r.freeAt = start + dur
	if done != nil {
		r.k.At(r.freeAt, done)
	}
}

// FreeAt returns the time at which all queued work drains.
func (r *resource) FreeAt() vtime { return r.freeAt }
