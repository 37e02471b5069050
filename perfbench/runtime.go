package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line for pid %d", pid)
}

// rtDelta is what the Go runtime counted between two readings.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles, gcPauseSec float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// readRT reads the runtime counters rtDelta is made of.
func readRT() rtDelta {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return rtDelta{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		gcPauseSec:   histTotal(s[3].Value.Float64Histogram()),
	}
}

// histTotal estimates the sum of a runtime histogram's observations
// from its bucket midpoints (the finite edge for open-ended buckets).
func histTotal(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += float64(n) * mid
	}
	return total
}

func (a rtDelta) minus(b rtDelta) rtDelta {
	return rtDelta{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcPauseSec:   a.gcPauseSec - b.gcPauseSec,
	}
}

// profiled runs fn under the CPU profiler and returns what the runtime
// counted meanwhile and the cpu.* and rt.* sample shares. The profile is
// written under dir and removed afterwards.
func profiled(dir string, fn func() error) (rtDelta, map[string]float64, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return rtDelta{}, nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return rtDelta{}, nil, err
	}
	before := readRT()
	ferr := fn()
	rt := readRT().minus(before)
	pprof.StopCPUProfile()
	if ferr != nil {
		return rtDelta{}, nil, ferr
	}
	if err := f.Close(); err != nil {
		return rtDelta{}, nil, err
	}
	shares, err := cpuShares(f.Name())
	return rt, shares, err
}

// cpuTime is the CPU time a whole process has used so far, all its
// threads together, as the kernel's scheduler counts it: time the
// process's threads were waiting for a core, or the VM for its host
// (steal), is not in it. pid 0 is this process.
func cpuTime(pid int) (time.Duration, error) {
	clock := int32(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = ^int32(pid)<<3 | 2 // the process CPU clock of pid, as clock_getcpuclockid(3) builds it
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU time of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is this process's CPU time; reading its own clock cannot fail.
func selfCPU() time.Duration {
	t, _ := cpuTime(0)
	return t
}
