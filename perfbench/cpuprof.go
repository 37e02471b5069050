package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the asap/internal packages a CPU sample can be charged
// to by name; samples charged to any other package, or with no
// asap/internal frame at all, count as cpu.other.
var cpuModules = []string{"sim", "cache", "memdev", "core", "schemes", "workload", "heap", "wal",
	"stats", "machine", "experiment", "sweep", "runner"}

// rtCauses maps each rt.* metric to the runtime functions that mark a
// sample as spent on that cause when they appear anywhere on its stack.
// The causes overlap (a GC assist runs inside mallocgc, and mallocgc
// zeroes with memclr), so the rt.* shares may sum to more than 1.
var rtCauses = map[string][]string{
	"rt.malloc": {"runtime.mallocgc"},
	"rt.gc":     {"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"},
	"rt.sched":  {"runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.goready", "runtime.wakep"},
	"rt.memclr": {"runtime.memclrNoHeapPointers"},
}

// cpuShares reads a CPU profile through `go tool pprof -traces` and
// returns the cpu.* and rt.* shares of its samples.
func cpuShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, errOut.String())
	}
	return parseTraces(&out)
}

// parseTraces attributes every sample in `pprof -traces` text to the
// innermost asap/internal frame on its stack (cpu.<module>) and to every
// runtime cause on it (rt.*). Each cpu.* share is that module's part of
// the total sample time, so they sum to 1.
func parseTraces(r io.Reader) (map[string]float64, error) {
	shares := map[string]float64{"cpu.other": 0}
	for _, m := range cpuModules {
		shares["cpu."+m] = 0
	}
	for k := range rtCauses {
		shares[k] = 0
	}
	var (
		total  time.Duration
		weight time.Duration
		stack  []string
	)
	flush := func() {
		if weight == 0 {
			return
		}
		shares[moduleOf(stack)] += float64(weight)
		for cause, fns := range rtCauses {
			if onStack(stack, fns) {
				shares[cause] += float64(weight)
			}
		}
		total += weight
		weight, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			flush()
			weight = d
			line = strings.TrimPrefix(strings.TrimSpace(line), fields[0])
		}
		stack = append(stack, strings.TrimSuffix(strings.TrimSpace(line), " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// moduleOf names the cpu.* bucket of a stack listed innermost first.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "asap/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range cpuModules {
			if pkg == m {
				return "cpu." + m
			}
		}
		return "cpu.other"
	}
	return "cpu.other"
}

// onStack reports whether any of fns is a frame of stack.
func onStack(stack, fns []string) bool {
	for _, f := range stack {
		for _, fn := range fns {
			if f == fn {
				return true
			}
		}
	}
	return false
}
