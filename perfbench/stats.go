package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported as the tail.
const minBeyond = 10

// tailLevels is the ladder the tail percentile is read from, highest
// first. A fixed ladder keeps the reported level the same from run to
// run when the sample count moves a little.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// summary is a timing distribution as the benchmark reports it: the
// median, the highest ladder percentile with at least minBeyond samples
// above it, and the sample count.
type summary struct {
	N         int
	P50       float64
	Tail      float64
	TailLevel float64
}

// summarize sorts a copy of xs and reads its median and tail. With too
// few samples for any ladder level the tail is the median (level 50).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: median(s), Tail: median(s), TailLevel: 50}
	for _, p := range tailLevels {
		if len(s)-rank(p, len(s)) >= minBeyond {
			out.Tail, out.TailLevel = s[rank(p, len(s))-1], p
			break
		}
	}
	return out
}

// rank is the 1-based nearest-rank index of percentile p among n
// sorted samples. The small slack keeps levels like 99.9 that binary
// floating point cannot hold exactly from rounding up a whole rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// median of sorted xs (the mean of the middle two for even counts).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is median for unsorted input.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// scrape is one Prometheus text exposition: each series, written as
// its name plus label set exactly as exposed, mapped to its value.
type scrape map[string]float64

// parseScrape reads a text exposition, skipping comments and blanks.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is how much a counter series grew from before to after.
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// histDelta is what a histogram gained between two scrapes: the number
// of observations and their sum. labels is the exposed label set
// (`{route="/x"}`) or empty.
func histDelta(before, after scrape, name, labels string) (count, sum float64) {
	return delta(before, after, name+"_count"+labels), delta(before, after, name+"_sum"+labels)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
