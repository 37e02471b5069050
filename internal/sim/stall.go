package sim

import (
	"fmt"
	"sort"
	"strings"
)

// BlockedThread is one entry of a StallError's blocked report.
type BlockedThread struct {
	Name  string `json:"name"`
	ID    int    `json:"id"`
	Clock uint64 `json:"clock"`
}

// StallKind classifies a forward-progress failure.
type StallKind string

// The stall kinds.
const (
	// StallDeadlock: every remaining thread is blocked on a predicate and
	// no event can unblock them — the simulation cannot take another step.
	StallDeadlock StallKind = "deadlock"
	// StallLivelock: the simulation keeps taking steps, but the attached
	// Watchdog observed a full window of cycles with zero progress while
	// backlog remained — threads are spinning or work is circulating
	// without completing.
	StallLivelock StallKind = "livelock"
)

// StallError is the structured no-forward-progress diagnosis Run returns in
// place of the old bare deadlock panic: which threads are blocked and at
// what clocks, the queue occupancies and structure gauges at the moment of
// detection, and a protocol-level snapshot (for ASAP, the dependence
// graph) supplied by the attached Watchdog. Exhaustion bugs surface as a
// diagnosable error instead of a hang or an opaque panic string.
type StallError struct {
	// Kind is deadlock or livelock.
	Kind StallKind `json:"kind"`
	// At is the kernel clock when the stall was diagnosed.
	At uint64 `json:"at"`
	// Window is the no-progress window that expired (livelock only).
	Window uint64 `json:"window,omitempty"`
	// Blocked lists the threads parked on predicates, ascending spawn
	// order.
	Blocked []BlockedThread `json:"blocked,omitempty"`
	// Gauges carries the watchdog's structure occupancies (WPQ/LH-WPQ
	// depths, live Dependence/CL List entries, commit backlog, ...).
	Gauges map[string]int `json:"gauges,omitempty"`
	// Snapshot is the watchdog's free-form protocol diagnosis — for ASAP,
	// the live dependence-graph dump.
	Snapshot string `json:"snapshot,omitempty"`
}

// Error implements error with a single-line summary; the structured fields
// carry the full diagnosis.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s at cycle %d", e.Kind, e.At)
	if e.Kind == StallLivelock {
		fmt.Fprintf(&b, " (no progress for %d cycles)", e.Window)
	}
	if len(e.Blocked) > 0 {
		names := make([]string, 0, len(e.Blocked))
		for _, t := range e.Blocked {
			names = append(names, fmt.Sprintf("%s@%d", t.Name, t.Clock))
		}
		sort.Strings(names)
		fmt.Fprintf(&b, ": blocked [%s]", strings.Join(names, ", "))
	}
	if len(e.Gauges) > 0 {
		keys := make([]string, 0, len(e.Gauges))
		for k := range e.Gauges {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, e.Gauges[k]))
		}
		fmt.Fprintf(&b, " gauges{%s}", strings.Join(parts, " "))
	}
	return b.String()
}

// Watchdog is the kernel's forward-progress detector. When attached, the
// kernel samples Progress every Window simulated cycles; a full window
// with an unchanged progress counter while Backlog reports outstanding
// work is diagnosed as a livelock and Run returns a *StallError. All
// callbacks are read-only observers of simulation state — attaching a
// watchdog never changes a scheduling decision, only whether a
// non-progressing run is cut short.
//
// A nil watchdog (the default) costs one pointer comparison per yield.
type Watchdog struct {
	// Window is the no-progress budget in simulated cycles. Zero disables
	// the livelock check (the structured deadlock diagnosis still applies).
	Window uint64
	// Progress returns a monotone counter of completed work (for ASAP,
	// committed regions). Unchanged across a full window ⇒ no progress.
	Progress func() uint64
	// Backlog reports outstanding work items; a window with zero progress
	// is only a stall when backlog is nonempty (an idle tail with nothing
	// queued is just the run winding down). Nil means "always consider
	// backlog nonempty".
	Backlog func() int
	// Gauges, when non-nil, samples structure occupancies for the
	// StallError (queue depths, live entries, ...).
	Gauges func() map[string]int
	// Snapshot, when non-nil, renders a protocol-level diagnosis (for
	// ASAP, the live dependence graph).
	Snapshot func() string
}

// SetWatchdog attaches wd to the kernel (nil detaches). Attach before Run.
func (k *Kernel) SetWatchdog(wd *Watchdog) {
	k.wd = wd
	k.wdAt = k.now
	k.wdProgress = 0
	if wd != nil && wd.Progress != nil {
		k.wdProgress = wd.Progress()
	}
}

// wdDue reports whether the attached watchdog's window has expired at time
// now. It is the cheap gate fastResume consults so a spinning thread that
// never takes the slow path still gets diagnosed.
func (k *Kernel) wdDue(now uint64) bool {
	return k.wd != nil && k.wd.Window > 0 && now-k.wdAt >= k.wd.Window
}

// checkWatchdog runs the livelock check once the window has expired:
// progress advanced ⇒ rearm; no progress with backlog ⇒ StallError.
func (k *Kernel) checkWatchdog() *StallError {
	if !k.wdDue(k.now) {
		return nil
	}
	wd := k.wd
	p := k.wdProgress
	if wd.Progress != nil {
		p = wd.Progress()
	}
	if p != k.wdProgress {
		k.wdProgress = p
		k.wdAt = k.now
		return nil
	}
	if wd.Backlog != nil && wd.Backlog() == 0 {
		k.wdAt = k.now
		return nil
	}
	return k.stallError(StallLivelock)
}

// stallError assembles the structured diagnosis for a detected stall.
func (k *Kernel) stallError(kind StallKind) *StallError {
	err := &StallError{Kind: kind, At: k.now}
	if kind == StallLivelock && k.wd != nil {
		err.Window = k.wd.Window
	}
	for _, t := range k.waiters {
		err.Blocked = append(err.Blocked, BlockedThread{Name: t.name, ID: t.id, Clock: t.now})
	}
	if k.wd != nil {
		if k.wd.Gauges != nil {
			err.Gauges = k.wd.Gauges()
		}
		if k.wd.Snapshot != nil {
			err.Snapshot = k.wd.Snapshot()
		}
	}
	return err
}

// MustRun is the panic-compatibility shim for Run: it drives the
// simulation like Run and panics with the *StallError on a stall, matching
// the kernel's historical deadlock behavior for callers (and tests) that
// treat a stall as fatal.
func (k *Kernel) MustRun() {
	if err := k.Run(); err != nil {
		panic(err)
	}
}
