package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asap/internal/runner"
	"asap/internal/stats"
	"asap/internal/sweep"
)

// sweepWorkload is one sweep workload: which experiments, at which
// scale, checked against which oracle file, and how much of the
// measurement window one pass over them stands for.
type sweepWorkload struct {
	scale  string
	names  []string
	oracle string
	pass   time.Duration
}

// A run makes one whole pass per pass-length of the window, at least
// one. The count depends on the window alone, never on how fast the
// host happens to be, so every run of a workload measures the same
// cells and reads its tail at the same percentile. The lengths are
// roughly what a pass takes on a 2-vCPU VM, which is 13-18 s quick and
// 15-21 s paper with the host's load.
var (
	quickSweep = sweepWorkload{scale: "quick", names: sweep.AllNames(), oracle: quickOracle, pass: 15 * time.Second}
	paperSweep = sweepWorkload{scale: "full", names: []string{"fig8"}, oracle: fullOracle, pass: 20 * time.Second}
)

// passes is how many passes a run with the given window makes.
func (wl sweepWorkload) passes(window time.Duration) int {
	return max(1, int(window/wl.pass))
}

// warmupExperiment runs at quick scale in every set-up round, so code
// pages and the heap are warm before timing starts; setupRounds set-ups
// are timed and their median reported.
const (
	warmupExperiment = "fences"
	setupRounds      = 5
)

// sweepRun accumulates one measured sequence of experiments, each run by
// its own sweep.Execute call on a serial pool whose job log records
// every cell's wall time and, on a metered run, whose reporter records
// its CPU time.
type sweepRun struct {
	pool  *runner.Pool
	jobs  *stats.JobLog
	clock *cellClock
	log   io.Writer

	seq               []string
	cells             int
	attempted, failed int
	wall, cpu         time.Duration
}

// newSweepRun makes a run. A metered run charges CPU time to each cell
// and times the reference between cells; the traced and probe runs are
// not metered, so their profiles and runtime counts hold the program's
// work alone.
func newSweepRun(log io.Writer, metered bool) *sweepRun {
	r := &sweepRun{pool: runner.New(1), jobs: &stats.JobLog{}, clock: &cellClock{}, log: log}
	r.pool.SetMetrics(r.jobs)
	if metered {
		r.pool.SetReporter(r.clock)
	}
	return r
}

// cellClock is a pool reporter that charges each cell the CPU time the
// process used from the end of the previous cell of its batch (or the
// batch's start) to the end of a collection forced right after the
// cell. On a serial pool that is the cell's run plus the collection of
// everything it left behind, whichever cells the collector's own pacing
// would have charged it to. It then times the reference, outside any
// cell's charge.
type cellClock struct {
	mark  time.Duration
	cpuMS []float64
	host  hostMeter
	// between is the wall time spent between cells, in the forced
	// collections and the reference.
	between time.Duration
}

func (c *cellClock) Start(int) { c.mark = selfCPU() }

func (c *cellClock) Done(string, time.Duration, bool) {
	t0 := time.Now()
	runtime.GC()
	c.cpuMS = append(c.cpuMS, float64(selfCPU()-c.mark)/1e6)
	c.host.sample()
	c.mark = selfCPU()
	c.between += time.Since(t0)
}

// exec runs one experiment and checks its output against its oracle
// section. An experiment counts one unit of work per cell (one if it
// has none); a wrong or failed experiment fails all of its units.
func (r *sweepRun) exec(ctx context.Context, name, scale string, or *oracle) error {
	before := r.jobs.Len()
	var out bytes.Buffer
	spec := sweep.Spec{Experiments: []string{name}, Scale: scale, Parallel: 1}
	res, err := sweep.Execute(ctx, spec, &out, sweep.Options{Pool: r.pool})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	cells := r.jobs.Len() - before
	units := max(cells, 1)
	r.seq = append(r.seq, name)
	r.cells += cells
	r.attempted += units
	switch {
	case res[0].Error != "":
		r.failed += units
		fmt.Fprintf(r.log, "perfbench: %s failed: %s\n", name, res[0].Error)
	case !or.matches(name, out.Bytes()):
		r.failed += units
		fmt.Fprintf(r.log, "perfbench: %s output differs from the oracle\n", name)
	}
	return nil
}

// cellWallsMS is every computed cell's host wall time, in ms.
func (r *sweepRun) cellWallsMS() []float64 {
	var out []float64
	for _, j := range r.jobs.Snapshot() {
		if j.WallNS > 0 {
			out = append(out, float64(j.WallNS)/1e6)
		}
	}
	return out
}

// runSweep is the sweep-quick and sweep-paper workload. Untraced, it
// runs whole passes over the experiments, each in a fresh seeded order.
// Traced, it then replays the same sequence with the CPU profiler and
// runtime counters on, runs the layer probes, and measures the daemon
// layers on a side service.
func runSweep(ctx context.Context, cfg config, wl sweepWorkload) (*outcome, error) {
	var (
		quick, or *oracle
		setups    []float64
		warm      = newSweepRun(cfg.log, true)
		err       error
	)
	for i := 0; i < setupRounds; i++ {
		c0, n0 := selfCPU(), warm.clock.host.samples()
		if quick, err = loadOracle(filepath.Join(cfg.oracleDir, quickOracle)); err != nil {
			return nil, err
		}
		or = quick
		if wl.oracle != quickOracle {
			if or, err = loadOracle(filepath.Join(cfg.oracleDir, wl.oracle)); err != nil {
				return nil, err
			}
		}
		for _, n := range wl.names {
			if !or.has(n) {
				return nil, fmt.Errorf("oracle %s has no section %q", wl.oracle, n)
			}
		}
		if err := warm.exec(ctx, warmupExperiment, "quick", quick); err != nil {
			return nil, err
		}
		setups = append(setups, warm.clock.host.since(n0).scale(selfCPU()-c0).Seconds())
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	base := newSweepRun(cfg.log, true)
	start, c0 := time.Now(), selfCPU()
	for pass := 0; pass < wl.passes(cfg.window); pass++ {
		order := append([]string(nil), wl.names...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, name := range order {
			if err := base.exec(ctx, name, wl.scale, or); err != nil {
				return nil, err
			}
		}
	}
	base.wall, base.cpu = time.Since(start), selfCPU()-c0
	rssMB, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	host := &base.clock.host
	lat := summarize(host.normalize(base.clock.cpuMS))
	workCPU := host.scale(base.cpu).Seconds()
	fmt.Fprintf(cfg.log, "perfbench: %d experiments, %d cells in %.3fs wall, %.3fs CPU at reference speed (host %.3fx slower); cell CPU p50 and p%g over %d samples\n",
		len(base.seq), base.cells, base.wall.Seconds(), workCPU, host.slowdown(), lat.TailLevel, lat.N)
	out := &outcome{
		attempted: warm.attempted + base.attempted,
		failed:    warm.failed + base.failed,
		metrics:   map[string]float64{},
	}
	if !cfg.trace {
		out.metrics["setup_s"] = medianOf(setups)
		out.metrics["throughput_per_cpu_s"] = float64(base.cells) / workCPU
		out.metrics["cpu_p50_ms"] = lat.P50
		out.metrics["cpu_tail_ms"] = lat.Tail
		out.metrics["peak_rss_mb"] = rssMB
		return out, nil
	}

	traced := newSweepRun(cfg.log, false)
	rt, cpu, err := profiled(cfg.work, func() error {
		start := time.Now()
		for _, name := range base.seq {
			if err := traced.exec(ctx, name, wl.scale, or); err != nil {
				return err
			}
		}
		traced.wall = time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	probes, _, err := runProbes(ctx, cfg.work, newSweepRun(cfg.log, false), quick)
	if err != nil {
		return nil, err
	}
	if err := sideService(ctx, cfg, quick, out); err != nil {
		return nil, err
	}
	m := out.metrics
	addAll(m, cpu, probes)
	addSimLayers(m, traced, rt)
	// The untraced run's wall time without what the meter added between
	// cells, which the traced run does not do.
	m["trace.overhead"] = traced.wall.Seconds() / (base.wall - base.clock.between).Seconds()
	m["bench.samples"] = float64(lat.N)
	m["bench.tail_level"] = lat.TailLevel
	return out, nil
}

// addSimLayers records the runner, simulator and Go runtime metrics of
// one traced run, whose wall time and runtime counts rt cover exactly
// the cells in its job log, and the share of that wall time that
// building one machine per computed cell accounts for (m must already
// hold the machine.new_ms probe). Cells served from a result cache
// simulated nothing and are left out.
func addSimLayers(m map[string]float64, r *sweepRun, rt rtDelta) {
	walls := r.cellWallsMS()
	cell := summarize(walls)
	var kcycles, ops float64
	for _, j := range r.jobs.Snapshot() {
		if j.WallNS > 0 {
			kcycles += float64(j.Cycles) / 1e3
			ops += float64(j.Ops)
		}
	}
	cells := float64(len(walls))
	m["runner.cell_ms_p50"] = cell.P50
	m["runner.cell_ms_tail"] = cell.Tail
	m["runner.cells"] = cells
	m["sim.kcycles_total"] = kcycles
	m["sim.ops_total"] = ops
	m["sim.host_ns_per_kcycle"] = ratio(float64(r.wall.Nanoseconds()), kcycles)
	m["machine.new_share"] = cells * m["machine.new_ms"] / 1e3 / r.wall.Seconds()
	m["go.alloc_mb_per_cell"] = ratio(rt.allocBytes/(1<<20), cells)
	m["go.allocs_per_cell"] = ratio(rt.allocObjects, cells)
	m["go.gc_cycles"] = rt.gcCycles
	m["go.gc_pause_ms"] = rt.gcPauseSec * 1e3
}

// addAll copies every entry of each source map into m.
func addAll(m map[string]float64, srcs ...map[string]float64) {
	for _, src := range srcs {
		for k, v := range src {
			m[k] = v
		}
	}
}
