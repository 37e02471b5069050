package main

import (
	"runtime"
	"testing"
)

var sink []byte

// TestRuntimeTotalsCountAllocations: the -json runtime block must see
// allocations and collections that happen between its two readings.
func TestRuntimeTotalsCountAllocations(t *testing.T) {
	before := readRuntime()
	sink = make([]byte, 1<<20)
	runtime.GC()
	d := readRuntime().since(before)
	if d.AllocBytes < 1<<20 || d.Allocs == 0 || d.GCCycles == 0 || d.GCPauseNS <= 0 {
		t.Fatalf("runtime totals missed the work: %+v", d)
	}
}
