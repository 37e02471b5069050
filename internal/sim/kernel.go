// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel multiplexes simulated threads (each backed by a goroutine, but
// with exactly one ever running at a time) over a shared virtual clock, and
// fires scheduled hardware events at exact cycles. Scheduling is
// lowest-virtual-clock-first with a monotone sequence number as tiebreaker,
// so a simulation is fully reproducible.
//
// The inner loop is built for wall-clock speed without changing a single
// scheduling decision (DESIGN.md §10). There is no kernel goroutine: the
// scheduling loop runs inside whichever thread yields, so due events fire
// inline and control passes straight to the next thread. A thread that
// remains the unique earliest entity resumes from its own yield with no
// goroutine switch at all; handing off to another thread costs one.
// Runnable threads wait in an indexed run queue instead of being
// rescanned, blocked threads live in a separate waiter set so predicates
// are polled only over the blocked subset, and fired events are pooled so
// Schedule allocates nothing steady-state.
//
// A panic in a thread body or event callback ends the run and is re-raised
// by Run in its caller's goroutine. When a run ends with threads still
// unfinished (halt, stall or panic), Run unwinds their goroutines before
// returning, so a halted kernel and its machine can be collected.
package sim

// Kernel is the simulation scheduler. The zero value is not usable; create
// one with NewKernel.
//
// Scheduling state invariant: between steps, every live thread is in
// exactly one place — the run queue (runnable, waiting for dispatch), the
// waiter set (blocked on a predicate), or running (at most one, currently
// executing between its dispatch and its next park).
// Finished threads are dropped at park time.
type Kernel struct {
	threads []*Thread
	runq    runQueue
	waiters []*Thread // blocked threads, ascending spawn order
	events  eventQueue
	now     uint64
	seq     uint64
	running bool
	halted  bool
	obs     Observer

	// Run waits on exit while the threads schedule each other; whichever
	// goroutine ends the run (or, while aborting, finishes unwinding)
	// signals it. runErr and panicVal (non-nil if a thread panicked)
	// carry the outcome across.
	exit     chan struct{}
	runErr   error
	panicVal any
	// aborting is set while Run unwinds the goroutines of unfinished
	// threads; aborted once a run has ended that way or by a panic, after
	// which a further Run panics unless the kernel is halted.
	aborting bool
	aborted  bool

	// Forward-progress watchdog (stall.go). wdAt is the kernel time the
	// current no-progress window opened; wdProgress the progress counter
	// sampled then.
	wd         *Watchdog
	wdAt       uint64
	wdProgress uint64
}

// Halt makes Run return at the next scheduling decision without running
// further threads or events. It models a power failure: whatever state the
// hardware holds at this instant is what a crash snapshot sees. Halt is
// called from thread or event context.
func (k *Kernel) Halt() { k.halted = true }

// Halted reports whether Halt was called.
func (k *Kernel) Halted() bool { return k.halted }

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{exit: make(chan struct{})}
}

// Now returns the kernel's current virtual time in cycles: the time of the
// most recent event fired or thread step begun.
func (k *Kernel) Now() uint64 { return k.now }

// Spawn registers a simulated thread that will execute fn when Run is
// called. The thread's virtual clock starts at the kernel's current time.
// Spawn may also be called from inside a running thread to fork workers.
func (k *Kernel) Spawn(name string, fn func(t *Thread)) *Thread {
	t := &Thread{
		k:      k,
		id:     len(k.threads),
		name:   name,
		now:    k.now,
		state:  stateRunnable,
		resume: make(chan struct{}),
	}
	k.threads = append(k.threads, t)
	k.runq.push(t)
	if k.obs != nil {
		k.obs.ThreadStart(t)
	}
	go k.body(t, fn)
	return t
}

// body is a thread's goroutine. It waits for the first dispatch, runs fn,
// and then schedules the next step in its own goroutine, like a final
// yield. A panic, from fn or from an event fired inline, ends the run:
// the deferred handler records it for Run to re-raise. While Run is
// aborting, every way out (the abort sentinel, a normal return, any other
// panic) just reports back that the goroutine has unwound.
func (k *Kernel) body(t *Thread, fn func(t *Thread)) {
	handedOff := false
	defer func() {
		if handedOff {
			return
		}
		v := recover()
		t.exited = true
		if !k.aborting {
			if v == nil { // recover sees no panic value under runtime.Goexit
				v = "sim: thread " + t.name + " exited without returning (runtime.Goexit)"
			}
			k.panicVal = v
		}
		k.exit <- struct{}{}
	}()
	<-t.resume
	if k.aborting {
		return
	}
	fn(t)
	t.state = stateDone
	t.exited = true
	k.dispatch(nil)
	handedOff = true
}

// Schedule registers fn to run at absolute cycle at. Events scheduled for a
// time earlier than the kernel clock fire as soon as possible. fn runs in
// kernel context: no simulated thread is executing concurrently, so it may
// mutate shared hardware state freely.
func (k *Kernel) Schedule(at uint64, fn func()) {
	k.seq++
	k.events.push(k.events.get(at, k.seq, fn))
}

// ScheduleAfter registers fn to run delay cycles from now.
func (k *Kernel) ScheduleAfter(delay uint64, fn func()) {
	k.Schedule(k.now+delay, fn)
}

// Run drives the simulation until every spawned thread has finished and the
// event queue is drained, then returns nil. If all remaining threads are
// blocked and no event can unblock them (simulated deadlock), or an
// attached Watchdog diagnoses a livelock, Run returns a *StallError
// carrying the blocked report, structure gauges, and protocol snapshot.
// Callers that treat any stall as fatal can use MustRun.
//
// A panic in a thread body or an event callback ends the run, and Run
// re-panics with the original value in the caller's goroutine. Whenever
// the run ends with threads unfinished (halt, stall or panic), their
// goroutines are unwound before Run returns; the kernel cannot be run
// again after that, except that Run on a halted kernel still returns nil.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	if k.aborted && !k.halted {
		panic("sim: Run after a stalled or panicked run")
	}
	k.running = true
	defer func() { k.running = false }()
	defer k.abort()

	t, done, err := k.next()
	if done {
		return err
	}
	t.resume <- struct{}{}
	<-k.exit
	if k.panicVal != nil {
		k.aborted = true
		panic(k.panicVal) // the deferred abort unwinds the other threads first
	}
	return k.runErr
}

// next performs scheduling steps in the calling goroutine until a thread
// is dispatched or the run is over. Events due first fire inline. On a
// dispatch it returns the winner with the kernel clock and the winner's
// clock brought up to date; done reports that the run is over (halted,
// stalled — err is the *StallError — or drained).
func (k *Kernel) next() (t *Thread, done bool, err error) {
	for {
		if k.halted {
			return nil, true, nil
		}
		if err := k.checkWatchdog(); err != nil {
			return nil, true, err
		}
		t, tEff := k.pickThread()
		ev := k.events.peek()

		switch {
		case ev != nil && (t == nil || ev.at <= tEff):
			k.events.pop()
			if ev.at > k.now {
				k.now = ev.at
				if k.obs != nil {
					k.obs.Tick(k.now)
				}
			}
			fn := ev.fn
			k.events.put(ev)
			fn()
		case t != nil:
			if t.state == stateBlocked {
				// Claim the wakeup now so no sibling waiter can also slip
				// past its predicate before this thread reacts.
				t.pred = nil
				t.state = stateRunnable
				k.removeWaiter(t)
			} else {
				k.runq.pop() // t is the run-queue minimum
			}
			if k.now > t.now {
				delta := k.now - t.now
				t.now = k.now
				if k.obs != nil {
					k.obs.ClockAdvance(t, delta)
				}
			}
			if t.now > k.now {
				k.now = t.now
				if k.obs != nil {
					k.obs.Tick(k.now)
				}
			}
			return t, false, nil
		default:
			if len(k.waiters) == 0 {
				return nil, true, nil // run queue empty, no waiters: every thread is done
			}
			return nil, true, k.stallError(StallDeadlock)
		}
	}
}

// dispatch makes the next scheduling decision on behalf of from, the
// thread that just parked or finished (nil when it finished). It reports
// whether from itself won, in which case from simply carries on: zero
// goroutine switches. Otherwise control has passed to the winner's
// goroutine, or to Run if the run is over, and from must wait on its own
// resume channel (unless it finished).
func (k *Kernel) dispatch(from *Thread) bool {
	t, done, err := k.next()
	switch {
	case done:
		k.runErr = err
		k.exit <- struct{}{}
	case t == from:
		return true
	default:
		t.resume <- struct{}{}
	}
	return false
}

// abort unwinds the goroutine of every thread that has not finished, one
// at a time: each is resumed with aborting set, so its pending yield
// panics the abort sentinel and body reports back once it has unwound.
// After a drained run every thread has exited and this is a no-op.
func (k *Kernel) abort() {
	k.aborting = true
	for i := 0; i < len(k.threads); i++ { // unwinding code may still Spawn
		t := k.threads[i]
		if t.exited {
			continue
		}
		t.resume <- struct{}{}
		<-k.exit
		k.aborted = true
	}
	k.aborting = false
}

// park files a thread that just yielded into the structure matching its
// state. Finished threads are dropped; they never re-enter scheduling.
func (k *Kernel) park(t *Thread) {
	switch t.state {
	case stateRunnable:
		k.runq.push(t)
	case stateBlocked:
		k.insertWaiter(t)
	}
}

// pickThread returns the thread that should run next and its effective
// time: among run-queue threads and blocked threads whose predicate
// currently holds, the one with the smallest effective clock, breaking
// ties by spawn order. Predicates are evaluated here, at scheduling time,
// so exactly one waiter can win a just-freed resource — and only waiters
// that could actually beat the run-queue minimum are polled, which is
// safe because predicates are read-only.
func (k *Kernel) pickThread() (*Thread, uint64) {
	best := k.runq.peek()
	var bestEff uint64
	if best != nil {
		bestEff = best.now // runnable: effective time is its own clock
	}
	for _, w := range k.waiters {
		eff := w.now
		if k.now > eff {
			// Blocked threads lag: they can only resume at the instant the
			// kernel unblocks them.
			eff = k.now
		}
		if best != nil && (eff > bestEff || (eff == bestEff && w.id > best.id)) {
			continue // cannot win regardless of its predicate
		}
		if !w.pred() {
			continue
		}
		best, bestEff = w, eff
	}
	return best, bestEff
}

// insertWaiter files t into the waiter set, keeping ascending spawn order
// so pickThread's scan preserves the original tie-break.
func (k *Kernel) insertWaiter(t *Thread) {
	i := len(k.waiters)
	for i > 0 && k.waiters[i-1].id > t.id {
		i--
	}
	k.waiters = append(k.waiters, nil)
	copy(k.waiters[i+1:], k.waiters[i:])
	k.waiters[i] = t
}

// removeWaiter unfiles a claimed waiter.
func (k *Kernel) removeWaiter(t *Thread) {
	for i, w := range k.waiters {
		if w == t {
			k.waiters = append(k.waiters[:i], k.waiters[i+1:]...)
			return
		}
	}
	panic("sim: blocked thread missing from waiter set: " + t.name)
}

// fastResume is the direct-dispatch fast path, called from a running
// thread's Yield or Advance. It reports whether t is still the unique next
// scheduling choice — no pending event at or before t's clock, no
// runnable thread and no satisfied waiter that would be picked instead —
// and if so performs the dispatch bookkeeping (kernel clock advance and
// observer Tick) inline, so control returns straight to t without parking
// it and running next. The decision procedure mirrors pickThread exactly;
// only the run-queue round trip is elided.
func (k *Kernel) fastResume(t *Thread) bool {
	if k.halted {
		return false // the slow path must end the run
	}
	if k.wdDue(t.now) {
		return false // watchdog window expired: next must perform the check
	}
	if ev := k.events.peek(); ev != nil && ev.at <= t.now {
		return false // an event fires first (events win ties)
	}
	if r := k.runq.peek(); r != nil && (r.now < t.now || (r.now == t.now && r.id < t.id)) {
		return false // another runnable thread is earlier
	}
	for _, w := range k.waiters {
		eff := w.now
		if k.now > eff {
			eff = k.now
		}
		if eff > t.now || (eff == t.now && w.id > t.id) {
			continue // loses the tie-break to t even if unblocked
		}
		if w.pred() {
			return false // an earlier waiter just became runnable
		}
	}
	if t.now > k.now {
		k.now = t.now
		if k.obs != nil {
			k.obs.Tick(k.now)
		}
	}
	return true
}
