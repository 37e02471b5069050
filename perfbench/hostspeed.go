package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// The host's speed is not steady: on a shared machine the same CPU work
// takes tens of percent more or less CPU time from one minute to the
// next, as neighbours load the cores, caches and memory it shares. CPU
// time leaves out waiting for a core but not this. So after each unit
// of the program's work (a cell or a job) the benchmark also times a
// reference, fixed work that has nothing to do with the program, and
// reports the program's CPU time scaled to the host speed at which each
// part of the reference takes its nominal time.
//
// The reference has three parts, each slowed by different neighbours:
// dependent random reads and writes over a working set larger than a
// core's private caches, DEFLATE compression of a fixed text (branchy
// table-driven code), and SHA-256 over the same text (the vector units).
// The slowdown is the geometric mean of the three parts' slowdowns. On
// a 2-vCPU VM, over minutes in which the program's CPU time per unit
// moved by 7% (coefficient of variation of 10 s medians), the program's
// CPU time over this slowdown moved by under 5%; any one part alone did
// worse.
type refPart struct {
	name    string
	nominal float64 // ms at the reference speed
	run     func()
}

var refParts = []refPart{
	{"memory", 1.5, refMemory},
	{"deflate", 1.0, refDeflate},
	{"sha256", 0.8, refSHA},
}

const (
	refWords = 1 << 20 // 8 MiB of uint64
	refIters = 10_000
	refHash  = 60 // SHA-256 passes over refText
	// refSpan is how many reference samples either side of a unit of
	// work give the host's speed for that unit.
	refSpan = 5
)

var (
	refBuf  = make([]uint64, refWords)
	refText = makeRefText()
	refOut  bytes.Buffer
	refZip  *flate.Writer
	refSink uint64
)

// makeRefText is 16 KiB of word-like text from a fixed seed.
func makeRefText() []byte {
	rng := rand.New(rand.NewSource(1))
	words := []string{"cache", "persist", "epoch", "fence", "queue", "line", "dirty", "flush", "memory", "write", "read", "log"}
	var b bytes.Buffer
	for b.Len() < 16<<10 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteString(strconv.Itoa(rng.Intn(1000)))
		b.WriteByte(' ')
	}
	return b.Bytes()
}

func refMemory() {
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x + acc) & (refWords - 1)
		refBuf[j] += x
		acc += refBuf[(j*31+1)&(refWords-1)]
	}
	refSink += acc
}

func refDeflate() {
	refOut.Reset()
	if refZip == nil {
		refZip, _ = flate.NewWriter(&refOut, 5)
	}
	refZip.Reset(&refOut)
	refZip.Write(refText)
	refZip.Close()
	refSink += uint64(refOut.Len())
}

func refSHA() {
	for i := 0; i < refHash; i++ {
		sum := sha256.Sum256(refText)
		refSink += uint64(sum[i%len(sum)])
	}
}

// hostMeter holds reference timings, one sample after each unit of
// work; partMS[p][i] is part p of sample i, in ms of CPU time.
type hostMeter struct {
	partMS [][]float64
	total  time.Duration
}

// sample times the reference once. The caller must not charge its CPU
// time to the program.
func (h *hostMeter) sample() {
	if h.partMS == nil {
		h.partMS = make([][]float64, len(refParts))
	}
	for p, part := range refParts {
		c0 := selfCPU()
		part.run()
		d := selfCPU() - c0
		h.partMS[p] = append(h.partMS[p], float64(d)/1e6)
		h.total += d
	}
}

// samples is how many times the reference was timed.
func (h *hostMeter) samples() int {
	if h.partMS == nil {
		return 0
	}
	return len(h.partMS[0])
}

// since is a meter holding the samples from the n-th on. Its total is
// theirs.
func (h *hostMeter) since(n int) *hostMeter {
	out := &hostMeter{}
	if h.partMS == nil {
		return out
	}
	out.partMS = make([][]float64, len(refParts))
	for p, ms := range h.partMS {
		out.partMS[p] = ms[n:]
		for _, v := range ms[n:] {
			out.total += time.Duration(v * 1e6)
		}
	}
	return out
}

// slowdownOver is how much slower than the reference speed the host was
// over samples lo to hi-1: the geometric mean, over the parts, of each
// part's median over its nominal time. With no samples it is 1.
func (h *hostMeter) slowdownOver(lo, hi int) float64 {
	if hi <= lo {
		return 1
	}
	var logSum float64
	for p, part := range refParts {
		logSum += math.Log(medianOf(h.partMS[p][lo:hi]) / part.nominal)
	}
	return math.Exp(logSum / float64(len(refParts)))
}

// slowdown is the host's slowdown over all samples.
func (h *hostMeter) slowdown() float64 { return h.slowdownOver(0, h.samples()) }

// slowdownAt is the host's slowdown around unit i, over the samples
// within refSpan of sample i.
func (h *hostMeter) slowdownAt(i int) float64 {
	return h.slowdownOver(max(0, i-refSpan), min(h.samples(), i+refSpan+1))
}

// normalize scales each unit's CPU time, in ms, to the reference speed
// by the host's speed around it; costs[i] is the unit sample i followed.
func (h *hostMeter) normalize(costs []float64) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = c / h.slowdownAt(i)
	}
	return out
}

// scale is the CPU time cpu, which includes every sample's own, without
// the samples and at the reference speed.
func (h *hostMeter) scale(cpu time.Duration) time.Duration {
	return time.Duration(float64(cpu-h.total) / h.slowdown())
}
