// Command perfbench is the repository benchmark. It runs one named
// workload, checks every output against the recorded oracle, and prints
// one JSON result line. Run it through run.sh, which builds it and
// asapd from the same tree:
//
//	bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	sweep-quick   quick-scale `-experiment all` matrix, serial, no cache
//	sweep-paper   fig8 at paper scale, serial, no cache
//	service-warm  the asapd binary over loopback HTTP, every cell cached
//
// With --trace 0 the result holds the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it holds the per-layer metrics from a
// traced run. A result whose outputs differ from the oracle is printed
// with "correct": false and the exit code is 1; a harness failure
// prints no result and exits 1. README.md lists each metric and what it
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what every workload gets.
type config struct {
	seed      int64
	window    time.Duration
	trace     bool
	oracleDir string
	asapd     string
	work      string
	log       io.Writer
}

// outcome is a workload's raw result: how many units of work it checked,
// how many were wrong, and the metric values it measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"sweep-quick":  func(ctx context.Context, c config) (*outcome, error) { return runSweep(ctx, c, quickSweep) },
	"sweep-paper":  func(ctx context.Context, c config) (*outcome, error) { return runSweep(ctx, c, paperSweep) },
	"service-warm": runService,
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads:
// the metric catalogue, so names and units live in one place.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	cfg := config{log: stderr}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives the experiment order and the job mix")
	seconds := fs.Int("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric catalogue")
	fs.StringVar(&cfg.oracleDir, "oracle-dir", "docs", "directory holding the recorded sweep outputs")
	fs.StringVar(&cfg.asapd, "asapd", "", "asapd binary, for service-warm")
	fs.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for daemon data and probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	// One P: a serial sweep needs no more, and on one P the process's
	// CPU time counts its work and not the idle-priority collector
	// workers the runtime parks on a spare core, whose share depends on
	// how busy the host is.
	runtime.GOMAXPROCS(1)
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
	}
	return report(*workload, defs, out, stdout, stderr)
}

// report prints a workload's result line on stdout and returns the exit
// code: 0 when every output matched the oracle, 1 otherwise.
func report(workload string, defs []metricDef, out *outcome, stdout, stderr io.Writer) int {
	res, err := assemble(defs, out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &s, nil
}

// assemble attaches units to the measured values and prints a readable
// table on log. A declared metric the workload did not measure, or a
// measured one nobody declared, is an error.
func assemble(defs []metricDef, out *outcome, log io.Writer) (*result, error) {
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "  %-28s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if len(out.metrics) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(out.metrics), len(defs))
	}
	fmt.Fprintf(log, "  attempted %d, failed %d, fail_ratio %.6g\n",
		out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	return res, nil
}
