package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asap/internal/sweep"
)

const docsDir = "../docs"

func TestOracleSectionsCoverEveryExperiment(t *testing.T) {
	for _, file := range []string{quickOracle, fullOracle} {
		text, err := os.ReadFile(filepath.Join(docsDir, file))
		if err != nil {
			t.Fatal(err)
		}
		o, err := splitSections(string(text))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var joined strings.Builder
		for _, name := range sweep.AllNames() {
			if !o.has(name) {
				t.Fatalf("%s: no section for %s", file, name)
			}
			joined.WriteString("==== " + name + " ====\n" + o.sections[name])
		}
		if joined.String() != string(text) {
			t.Errorf("%s: sections in AllNames order do not rebuild the file", file)
		}
	}
}

func TestOracleLastSectionTrailingNewline(t *testing.T) {
	o, err := splitSections("==== a ====\nx\n\n==== b ====\ny\n")
	if err != nil {
		t.Fatal(err)
	}
	if !o.matches("b", []byte("y\n")) || !o.matches("b", []byte("y\n\n")) {
		t.Error("last section must match with and without the stripped final newline")
	}
	if o.matches("a", []byte("x\n\n\n")) || !o.matches("a", []byte("x\n\n")) {
		t.Error("an inner section must match exactly")
	}
	if _, err := splitSections("stray\n==== a ====\n"); err == nil {
		t.Error("text before the first banner must be refused")
	}
}

// runSubset runs the sweep-quick workload over a cheap subset of its
// experiments against the oracle files in dir, and reports the result
// as the benchmark would.
func runSubset(t *testing.T, dir string) (int, result) {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cfg := config{seed: 1, window: time.Second, oracleDir: dir, work: t.TempDir(), log: &stderr}
	wl := quickSweep
	wl.names = []string{"config", "area", "ablation-structs"}
	out, err := runSweep(context.Background(), cfg, wl)
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, stderr.String())
	}
	code := report("sweep-quick", spec.EndToEnd, out, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, no result line: %v\nstderr:\n%s", code, err, stderr.String())
	}
	return code, res
}

// copyOracles copies both oracle files into a temporary directory,
// applying edit to the quick one.
func copyOracles(t *testing.T, edit func([]byte)) string {
	t.Helper()
	dir := t.TempDir()
	for _, file := range []string{quickOracle, fullOracle} {
		b, err := os.ReadFile(filepath.Join(docsDir, file))
		if err != nil {
			t.Fatal(err)
		}
		if file == quickOracle {
			edit(b)
		}
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFlippedOracleByteFailsTheRun(t *testing.T) {
	code, res := runSubset(t, copyOracles(t, func([]byte) {}))
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("clean oracle: exit %d, result %+v", code, res)
	}
	if len(res.Metrics) != 5 {
		t.Errorf("want the 5 end-to-end metrics, got %d", len(res.Metrics))
	}

	code, res = runSubset(t, copyOracles(t, func(b []byte) {
		i := bytes.Index(b, []byte("Table 2: system configuration"))
		b[i] ^= 1
	}))
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("flipped oracle byte: exit %d, result %+v; want a failure", code, res)
	}
	if r := float64(res.Failed) / float64(res.Attempted); r <= 0 {
		t.Errorf("fail_ratio %g, want > 0", r)
	}
}

func TestSummarizeTailRule(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		level     float64
		tail, p50 float64
	}{
		{534, 95, 508, 267.5}, // p99 leaves only 5 beyond
		{1000, 99, 990, 500.5},
		{45, 75, 34, 23},
		{10000, 99.9, 9990, 5000.5},
		{5, 50, 3, 3}, // too few samples for any tail level
	} {
		s := summarize(series(tc.n))
		if s.N != tc.n || s.TailLevel != tc.level || s.Tail != tc.tail || s.P50 != tc.p50 {
			t.Errorf("n=%d: got %+v, want level %g tail %g p50 %g", tc.n, s, tc.level, tc.tail, tc.p50)
		}
		if s.TailLevel > 50 && tc.n-rank(s.TailLevel, tc.n) < minBeyond {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond it", tc.n, s.TailLevel, minBeyond)
		}
	}
}

const exposition = `# HELP asapd_journal_syncs_total Journal medium syncs.
# TYPE asapd_journal_syncs_total counter
asapd_journal_syncs_total %d
asapd_http_request_seconds_bucket{route="/api/v1/jobs",le="0.001"} %d
asapd_http_request_seconds_bucket{route="/api/v1/jobs",le="+Inf"} %d
asapd_http_request_seconds_sum{route="/api/v1/jobs"} %g
asapd_http_request_seconds_count{route="/api/v1/jobs"} %d
`

func TestScrapeDeltas(t *testing.T) {
	parse := func(syncs, fast, all int, sum float64) scrape {
		s, err := parseScrape(strings.NewReader(fmt.Sprintf(exposition, syncs, fast, all, sum, all)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse(12, 3, 4, 0.004)
	after := parse(42, 5, 14, 0.024)
	if d := delta(before, after, "asapd_journal_syncs_total"); d != 30 {
		t.Errorf("counter delta %g, want 30", d)
	}
	n, sum := histDelta(before, after, "asapd_http_request_seconds", `{route="/api/v1/jobs"}`)
	if n != 10 || math.Abs(sum-0.02) > 1e-12 {
		t.Errorf("histogram delta count %g sum %g, want 10 and 0.02", n, sum)
	}
	if got := delta(before, after, `asapd_http_request_seconds_bucket{route="/api/v1/jobs",le="0.001"}`); got != 2 {
		t.Errorf("bucket delta %g, want 2", got)
	}
	if _, err := parseScrape(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value must be refused")
	}
}

func TestCheckWarm(t *testing.T) {
	parse := func(text string) scrape {
		s, err := parseScrape(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse("asapd_resultcache_hits 10\nasapd_resultcache_misses 5\n")
	for _, tc := range []struct {
		after string
		warm  bool
	}{
		{"asapd_resultcache_hits 30\nasapd_resultcache_misses 5\n", true},
		{"asapd_resultcache_hits 30\nasapd_resultcache_misses 6\n", false}, // a miss
		{"asapd_resultcache_hits 10\nasapd_resultcache_misses 5\n", false}, // no hits
		{"asapd_journal_syncs_total 3\n", false},                           // cache off
	} {
		if err := checkWarm(before, parse(tc.after)); (err == nil) != tc.warm {
			t.Errorf("after %q: checkWarm = %v, want warm %v", tc.after, err, tc.warm)
		}
	}
}

func TestTraceSharesSumToOne(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for k, v := range shares {
		if strings.HasPrefix(k, "cpu.") {
			sum += v
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu.* shares sum to %g, want 1", sum)
	}
	// Six 10ms samples. The background sweeper's has no asap frame; the
	// memclr inside mallocgc under cache.NewHierarchy is charged to
	// cache, and the allocation under memdev.SubmitPersist to memdev.
	want := map[string]float64{"cpu.other": 1.0 / 6, "cpu.sim": 1.0 / 6, "cpu.core": 2.0 / 6,
		"cpu.cache": 1.0 / 6, "cpu.memdev": 1.0 / 6,
		"rt.gc": 1.0 / 6, "rt.malloc": 2.0 / 6, "rt.memclr": 1.0 / 6, "rt.sched": 0}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, shares[k], v)
		}
	}
}

func TestHostMeter(t *testing.T) {
	// Every part at twice its nominal time for the first 20 samples and
	// at its nominal time after: a host half as fast, then at the
	// reference speed.
	h := &hostMeter{partMS: make([][]float64, len(refParts))}
	for i := 0; i < 40; i++ {
		f := 1.0
		if i < 20 {
			f = 2
		}
		for p, part := range refParts {
			h.partMS[p] = append(h.partMS[p], f*part.nominal)
			h.total += time.Duration(f * part.nominal * 1e6)
		}
	}
	if got := h.slowdownAt(3); math.Abs(got-2) > 1e-9 {
		t.Errorf("slowdownAt(3) = %g, want 2", got)
	}
	if got := h.slowdownAt(35); math.Abs(got-1) > 1e-9 {
		t.Errorf("slowdownAt(35) = %g, want 1", got)
	}
	norm := h.normalize([]float64{10, 10})
	if math.Abs(norm[0]-5) > 1e-9 || math.Abs(norm[1]-5) > 1e-9 {
		t.Errorf("normalize = %v, want [5 5]", norm)
	}
	late := h.since(20)
	if late.samples() != 20 || math.Abs(late.slowdown()-1) > 1e-9 {
		t.Errorf("since(20): %d samples, slowdown %g; want 20 and 1", late.samples(), late.slowdown())
	}
	// scale drops the samples' own CPU time before scaling.
	if got, want := late.scale(late.total+3*time.Second), 3*time.Second; got != want {
		t.Errorf("scale = %v, want %v", got, want)
	}
	if (&hostMeter{}).slowdown() != 1 {
		t.Error("a meter without samples must read the reference speed")
	}
	h.sample()
	if h.samples() != 41 || h.total <= 0 {
		t.Error("sample must add one timing of every part")
	}
}
