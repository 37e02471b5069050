package sim

type threadState uint8

const (
	stateRunnable threadState = iota
	stateBlocked
	stateDone
)

// Thread is a simulated hardware thread with its own virtual clock. All
// methods must be called from within the thread's own function; the kernel
// guarantees that only one thread executes at any instant, so code between
// yields observes and mutates shared state atomically in simulated time.
type Thread struct {
	k      *Kernel
	id     int
	name   string
	now    uint64
	state  threadState
	pred   func() bool
	resume chan struct{}
	// exited is set once the thread's goroutine is gone or about to be:
	// fn returned, or it unwound from a panic or an abort.
	exited bool

	// sleepPred is the reusable SleepUntil predicate: it reads sleepAt so
	// timed sleeps allocate no per-call closure. Created on first use.
	sleepAt   uint64
	sleepPred func() bool
}

// ID returns the thread's spawn index, used by hardware as the ThreadID part
// of region IDs.
func (t *Thread) ID() int { return t.id }

// Name returns the name given at Spawn.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's virtual clock in cycles.
func (t *Thread) Now() uint64 { return t.now }

// Kernel returns the kernel this thread runs on.
func (t *Thread) Kernel() *Kernel { return t.k }

// Advance moves the thread's clock forward by cycles and yields to the
// kernel so other threads and events at earlier times can run.
func (t *Thread) Advance(cycles uint64) {
	t.now += cycles
	if t.k.obs != nil && cycles > 0 {
		t.k.obs.ClockAdvance(t, cycles)
	}
	if !t.k.fastResume(t) { // Yield, written out: it is over the inlining budget
		t.switchOut()
	}
}

// Yield hands control to the kernel without advancing the clock. It gives
// same-time events and threads a chance to run between two operations.
//
// Fast path: if this thread is still the unique earliest entity,
// fastResume performs the kernel's dispatch bookkeeping inline and control
// returns at once — same scheduling outcome, no goroutine switch.
func (t *Thread) Yield() {
	if !t.k.fastResume(t) {
		t.switchOut()
	}
}

// WaitUntil blocks the thread until pred returns true. The predicate is
// evaluated in kernel context (no other thread running) after every event
// and thread step, and the thread resumes immediately once it holds, with
// its clock advanced to the unblocking time. Between WaitUntil returning and
// the thread's next yield no other thread can run, so a resource guarded by
// the predicate can be claimed race-free right after return. Predicates
// must be read-only: the kernel polls them at scheduling decisions and may
// poll a given predicate more or fewer times than simulated time suggests.
func (t *Thread) WaitUntil(pred func() bool) {
	if pred() {
		return
	}
	t.pred = pred
	t.state = stateBlocked
	t.switchOut()
}

// SleepUntil blocks the thread until the kernel clock reaches cycle at.
// Steady-state it allocates nothing: the anchor event comes from the
// kernel's event pool and the predicate is reused across calls.
func (t *Thread) SleepUntil(at uint64) {
	if t.now >= at {
		return
	}
	if t.sleepPred == nil {
		t.sleepPred = func() bool { return t.k.now >= t.sleepAt }
	}
	t.sleepAt = at
	// Anchor the wakeup with an empty event so the kernel clock is
	// guaranteed to reach it even if nothing else is scheduled.
	t.k.Schedule(at, noopEvent)
	t.WaitUntil(t.sleepPred)
}

// noopEvent anchors timed wakeups; being a named function it captures
// nothing and costs no allocation to schedule.
func noopEvent() {}

// switchOut is the slow path of Yield and of a blocking WaitUntil, kept
// out of line so the fast path carries none of its code. The thread files
// itself and makes the next scheduling decision in its own goroutine,
// firing due events inline: if it wins again it carries on with no
// goroutine switch; if another thread wins, control passes there in one
// switch and this goroutine waits to be resumed.
//
//go:noinline
func (t *Thread) switchOut() {
	k := t.k
	if k.aborting {
		panic(abortSignal{}) // a deferred call yielding while t unwinds
	}
	k.park(t)
	if k.dispatch(t) {
		return
	}
	<-t.resume
	if k.aborting {
		panic(abortSignal{}) // Run is unwinding unfinished threads
	}
}

// abortSignal is the panic value that unwinds a thread whose run ended
// under it; the thread's goroutine wrapper swallows it.
type abortSignal struct{}
