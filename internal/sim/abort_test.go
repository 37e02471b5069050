package sim

// How a run ends when it cannot finish normally: a panic in a thread body
// or an event callback must reach Run's caller with its original value,
// and a halted, stalled or panicked run must leave no thread goroutine
// (and so no machine) behind.

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// runPanic runs k and returns the value Run panicked with (nil if none).
func runPanic(k *Kernel) (v any) {
	defer func() { v = recover() }()
	k.Run()
	return nil
}

func TestThreadPanicReachesRunCaller(t *testing.T) {
	boom := errors.New("boom")
	k := NewKernel()
	k.Spawn("bystander", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(3)
		}
	})
	k.Spawn("faulty", func(th *Thread) {
		th.Advance(10)
		panic(boom)
	})
	if v := runPanic(k); v != boom {
		t.Fatalf("Run panicked with %v, want the thread's own value", v)
	}
}

func TestEventPanicReachesRunCaller(t *testing.T) {
	stall := &StallError{Kind: StallLivelock}
	for _, tc := range []struct {
		name string
		at   uint64
	}{
		{"fired inline in a thread", 50}, // the sleeper's slow path fires it
		{"fired before any dispatch", 0}, // Run's own first decision fires it
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.Schedule(tc.at, func() { panic(stall) })
			k.Spawn("sleeper", func(th *Thread) { th.SleepUntil(100) })
			v := runPanic(k)
			var se *StallError
			if err, ok := v.(error); !ok || !errors.As(err, &se) || se != stall {
				t.Fatalf("Run panicked with %v, want the event's *StallError", v)
			}
		})
	}
}

func TestGoexitInThreadReachesRunCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("quitter", func(th *Thread) {
		th.Advance(1)
		runtime.Goexit()
	})
	if v := runPanic(k); v == nil {
		t.Fatal("Run returned normally after a thread called runtime.Goexit")
	}
}

// TestAbortRunsThreadDefers: the unwound goroutines of a stalled run are
// really gone — their deferred calls have run by the time Run returns.
func TestAbortRunsThreadDefers(t *testing.T) {
	k := NewKernel()
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn("stuck", func(th *Thread) {
			defer func() { unwound++ }()
			th.Advance(uint64(i))
			th.WaitUntil(func() bool { return false })
		})
	}
	k.Spawn("never-started", func(th *Thread) {
		th.WaitUntil(func() bool { return false })
	})
	var se *StallError
	if err := k.Run(); !errors.As(err, &se) || se.Kind != StallDeadlock {
		t.Fatalf("Run = %v, want a deadlock StallError", err)
	}
	if unwound != 3 {
		t.Fatalf("%d of 3 blocked threads unwound", unwound)
	}
}

func TestRunAfterAbort(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, k.Halt)
	k.Spawn("w", func(th *Thread) { th.SleepUntil(10) })
	if err := k.Run(); err != nil || !k.Halted() {
		t.Fatalf("Run = %v, halted %v", err, k.Halted())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run on a halted kernel = %v, want nil", err)
	}

	k = NewKernel()
	k.Spawn("stuck", func(th *Thread) { th.WaitUntil(func() bool { return false }) })
	if k.Run() == nil {
		t.Fatal("deadlock not reported")
	}
	if v := runPanic(k); v == nil {
		t.Fatal("Run after a stalled run did not panic")
	}
}

// TestEndedRunsLeakNoGoroutines: halted, deadlocked and panicked kernels
// with unfinished threads give every thread goroutine back.
func TestEndedRunsLeakNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		halted := NewKernel()
		halted.Schedule(20, halted.Halt)
		spawnSpinners(halted, 4)
		if err := halted.Run(); err != nil || !halted.Halted() {
			t.Fatalf("halted run: err %v, halted %v", err, halted.Halted())
		}

		stuck := NewKernel()
		for j := 0; j < 4; j++ {
			stuck.Spawn("stuck", func(th *Thread) {
				th.Advance(uint64(j))
				th.WaitUntil(func() bool { return false })
			})
		}
		if _, ok := stuck.Run().(*StallError); !ok {
			t.Fatal("deadlocked run did not return a StallError")
		}

		panicked := NewKernel()
		spawnSpinners(panicked, 3)
		panicked.Spawn("faulty", func(th *Thread) { th.Advance(7); panic("boom") })
		if runPanic(panicked) == nil {
			t.Fatal("panicked run did not panic")
		}
	}
	// A goroutine that has signalled Run may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines: %d before, %d after 300 ended runs", base, n)
	}
}

// spawnSpinners adds n threads that would each run for a long time.
func spawnSpinners(k *Kernel, n int) {
	for i := 0; i < n; i++ {
		k.Spawn("spin", func(th *Thread) {
			for j := 0; j < 1_000_000; j++ {
				th.Advance(uint64(1 + i))
			}
		})
	}
}
