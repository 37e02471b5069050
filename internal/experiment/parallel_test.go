package experiment

import (
	"strings"
	"testing"

	"asap/internal/runner"
	"asap/internal/stats"
)

// TestFigureOutputIdenticalAcrossPoolWidths is the determinism gate's
// in-tree twin: the rendered tables must be byte-identical between the
// serial pool and wide ones, because results are assembled in submission
// order and every run builds a private machine. The mix covers every
// owner that releases a machine — standard runs, co-runs, and the custom
// fence and NUMA cells — since all workers draw cache levels from the
// same pools: a level handed to two live machines would show up here as
// cross-talk (run it under -race).
func TestFigureOutputIdenticalAcrossPoolWidths(t *testing.T) {
	defer SetPool(nil)
	sc := tinyScale("BN", "Q")
	render := func(width int) string {
		SetPool(runner.New(width))
		return Fig1(sc).String() + Fig9b(sc).String() + Sec74(sc).String() +
			CoRunning(sc).String() + FenceSweep(sc).String() + NUMA(sc).String()
	}

	serial := render(1)
	for _, width := range []int{4, 8} {
		if wide := render(width); wide != serial {
			t.Fatalf("tables differ between pool widths 1 and %d:\n--- serial ---\n%s\n--- parallel ---\n%s", width, serial, wide)
		}
	}
}

// TestRunAllPanicPropagates preserves Run's serial failure semantics:
// a job that panics inside the pool (an inconsistent benchmark, an
// unknown scheme) must surface as a panic from runAll.
func TestRunAllPanicPropagates(t *testing.T) {
	defer SetPool(nil)
	SetPool(runner.New(4))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("runAll must re-raise job panics")
		}
		if !strings.Contains((r.(error)).Error(), "unknown scheme") {
			t.Fatalf("panic lost its cause: %v", r)
		}
	}()
	runAll("bad", []runSpec{{v: Variant{Scheme: "NoSuchScheme"}, bench: "Q", scale: tinyScale("Q"), valueBytes: 64}})
}

// TestPoolMetricsCarrySimulatedCycles: the job log wired through the
// pool must see the simulator's cycle and op counts for real runs.
func TestPoolMetricsCarrySimulatedCycles(t *testing.T) {
	defer SetPool(nil)
	p := runner.New(2)
	log := &stats.JobLog{}
	p.SetMetrics(log)
	SetPool(p)

	sc := tinyScale("Q")
	Fig1(Scale{Threads: sc.Threads, OpsPerThread: sc.OpsPerThread, InitialItems: sc.InitialItems, Benchmarks: []string{"Q"}})

	snap := log.Snapshot()
	if len(snap) != 3 { // NP, SW-DPOOnly, SW on one benchmark
		t.Fatalf("want 3 job metrics, got %d", len(snap))
	}
	if snap[0].Label != "fig1/Q/NP" {
		t.Fatalf("labels must follow submission order: %q", snap[0].Label)
	}
	for _, m := range snap {
		if m.Cycles == 0 || m.Ops == 0 {
			t.Fatalf("simulated metrics missing from %+v", m)
		}
	}
}
