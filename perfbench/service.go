package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"asap/internal/queue"
	"asap/internal/resultcache"
	"asap/internal/sweep"
)

const (
	// serviceCodeVersion is the result-cache version asapd runs under,
	// so its cache works whether or not the tree is VCS-stamped.
	serviceCodeVersion = "perfbench"
	jobTimeout         = 2 * time.Minute
	readyTimeout       = 30 * time.Second
	stopTimeout        = 10 * time.Second
)

// daemon is an asapd child process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logf *os.File
	done chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon runs asapd with a fresh data directory under dir and
// default workers, and waits until /readyz answers.
func startDaemon(ctx context.Context, bin, dir string, c *client) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("service-warm needs -asapd (run through run.sh)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(dir, "asapd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-dir", filepath.Join(dir, "data"), "-drain-grace", "5s")
	// One P, as in the benchmark itself, so the daemon's CPU time per job
	// is its work and not idle collector workers on a spare core.
	cmd.Env = append(os.Environ(), resultcache.CodeVersionEnv+"="+serviceCodeVersion, "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting asapd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logf: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	c.base = d.base
	deadline := time.Now().Add(readyTimeout)
	for {
		if _, err := c.get(ctx, "/readyz"); err == nil {
			return d, nil
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("asapd exited during start-up: %s", d.tail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("asapd not ready after %v: %s", readyTimeout, d.tail())
		}
	}
}

// stop sends SIGTERM, kills the daemon if it has not drained in time,
// and waits for it to exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.logf.Close()
}

// cpu is the CPU time the daemon has used so far.
func (d *daemon) cpu() (time.Duration, error) { return cpuTime(d.cmd.Process.Pid) }

// tail is the end of the daemon's log, for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// client is the closed-loop caller, with a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: jobTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// request sends one request and returns the body of a response with the
// wanted status.
func (c *client) request(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	return c.request(ctx, http.MethodGet, path, nil, http.StatusOK)
}

// scrape reads the daemon's /metrics.
func (c *client) scrape(ctx context.Context) (scrape, error) {
	b, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(bytes.NewReader(b))
}

// jobSpan is one job's timeline at the client: submit (POST until the
// id is back), wait (event stream until the terminal event) and fetch
// (result bytes read), and the CPU time the daemon used from submit to
// fetched result. The spans of one job share its id.
type jobSpan struct {
	ID         uint64        `json:"id"`
	Experiment string        `json:"experiment"`
	Start      time.Time     `json:"start"`
	Submit     time.Duration `json:"submit_ns"`
	Wait       time.Duration `json:"wait_ns"`
	Fetch      time.Duration `json:"fetch_ns"`
	DaemonCPU  time.Duration `json:"daemon_cpu_ns"`
}

// do submits one quick-scale job for experiment, waits on its event
// stream for the terminal event, and fetches the result.
func (c *client) do(ctx context.Context, experiment string) (jobSpan, []byte, error) {
	sp := jobSpan{Experiment: experiment, Start: time.Now()}
	spec, err := json.Marshal(sweep.Spec{Experiments: []string{experiment}, Scale: "quick"})
	if err != nil {
		return sp, nil, err
	}
	b, err := c.request(ctx, http.MethodPost, "/api/v1/jobs", spec, http.StatusAccepted)
	if err != nil {
		return sp, nil, err
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return sp, nil, fmt.Errorf("submit reply: %w", err)
	}
	sp.ID = sub.ID
	t1 := time.Now()
	sp.Submit = t1.Sub(sp.Start)
	state, err := c.await(ctx, sub.ID)
	t2 := time.Now()
	sp.Wait = t2.Sub(t1)
	if err != nil {
		return sp, nil, err
	}
	if state != "done" {
		return sp, nil, fmt.Errorf("job %d (%s) ended %s", sub.ID, experiment, state)
	}
	out, err := c.get(ctx, fmt.Sprintf("/api/v1/jobs/%d/result", sub.ID))
	sp.Fetch = time.Since(t2)
	return sp, out, err
}

// await follows a job's server-sent event stream to its terminal event
// and returns the final state.
func (c *client) await(ctx context.Context, id uint64) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/api/v1/jobs/%d/events", c.base, id), nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job %d events: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev queue.ProgressEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("job %d event: %w", id, err)
		}
		if ev.Terminal {
			// The server ends the stream after this event; reading to EOF
			// lets the connection be reused.
			io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("job %d events: %w", id, err)
	}
	return "", fmt.Errorf("job %d: event stream ended without a terminal event", id)
}

// session is what the closed-loop client did in one run of jobs.
type session struct {
	spans             []jobSpan // jobs whose result matched the oracle
	attempted, failed int
	wall, daemonCPU   time.Duration
	host              hostMeter // one reference timing after each checked job
}

func (s *session) throughput() float64 { return float64(len(s.spans)) / s.wall.Seconds() }

func (s *session) latenciesMS(part func(jobSpan) time.Duration) []float64 {
	out := make([]float64, len(s.spans))
	for i, sp := range s.spans {
		out[i] = float64(part(sp)) / 1e6
	}
	return out
}

// service is a running asapd child, its closed-loop client, and a
// result cache holding every cell of the experiments it was opened
// with.
type service struct {
	d     *daemon
	c     *client
	dir   string
	names []string
	quick *oracle
	log   io.Writer
	fill  *session      // the cold jobs that filled the cache
	setup time.Duration // CPU time of start-up plus fill, daemon and benchmark together, at the reference speed
}

// openService starts asapd in a fresh directory under cfg.work, waits
// until it is ready, and fills its result cache with one cold job per
// experiment in names.
func openService(ctx context.Context, cfg config, quick *oracle, names []string) (*service, error) {
	dir, err := os.MkdirTemp(cfg.work, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{c: newClient(), dir: dir, names: names, quick: quick, log: cfg.log}
	c0 := selfCPU()
	if s.d, err = startDaemon(ctx, cfg.asapd, dir, s.c); err != nil {
		s.close()
		return nil, err
	}
	next := 0
	s.fill, err = s.drive(ctx, func() (string, bool) {
		next++
		return names[min(next, len(names))-1], next <= len(names)
	})
	if err != nil {
		s.close()
		return nil, err
	}
	daemonCPU, err := s.d.cpu()
	if err != nil {
		s.close()
		return nil, err
	}
	s.setup = s.fill.host.scale(selfCPU() - c0 + daemonCPU)
	return s, nil
}

// close stops the daemon and removes its directory.
func (s *service) close() {
	if s.d != nil {
		s.d.stop()
	}
	s.c.close()
	os.RemoveAll(s.dir)
}

// drive has the client do jobs back to back, for the experiments pick
// names until it reports none left, and checks every result against the
// quick oracle. One job is in flight at a time, so the daemon's CPU time
// from a job's submit to its fetched result is that job's.
func (s *service) drive(ctx context.Context, pick func() (string, bool)) (*session, error) {
	ses := &session{}
	start := time.Now()
	first, err := s.d.cpu()
	if err != nil {
		return nil, err
	}
	for ctx.Err() == nil {
		name, ok := pick()
		if !ok {
			break
		}
		c0, err := s.d.cpu()
		if err != nil {
			return nil, err
		}
		sp, out, jerr := s.c.do(ctx, name)
		c1, err := s.d.cpu()
		if err != nil {
			return nil, err
		}
		sp.DaemonCPU = c1 - c0
		ses.attempted++
		switch {
		case ctx.Err() != nil:
		case jerr != nil:
			ses.failed++
			fmt.Fprintf(s.log, "perfbench: job for %s failed: %v\n", name, jerr)
		case !s.quick.matches(name, out):
			ses.failed++
			fmt.Fprintf(s.log, "perfbench: job %d (%s) result differs from the oracle\n", sp.ID, name)
		default:
			ses.spans = append(ses.spans, sp)
			ses.host.sample()
		}
	}
	ses.wall = time.Since(start)
	last, err := s.d.cpu()
	if err != nil {
		return nil, err
	}
	ses.daemonCPU = last - first
	return ses, ctx.Err()
}

// warmWindow has the client run jobs back to back in passes over the
// service's names, each pass running every name once in an order
// shuffled by an RNG seeded from seed, so every run does the same jobs
// and the seed moves only their order. It takes the daemon's /metrics
// before and after, which must show every cell served from the result
// cache.
func (s *service) warmWindow(ctx context.Context, seed int64, passes int) (*session, scrape, scrape, error) {
	before, err := s.c.scrape(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var order []string
	w, err := s.drive(ctx, func() (string, bool) {
		if len(order) == 0 {
			if passes == 0 {
				return "", false
			}
			passes--
			order = append([]string(nil), s.names...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		name := order[0]
		order = order[1:]
		return name, true
	})
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := s.c.scrape(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := checkWarm(before, after); err != nil {
		return nil, nil, nil, err
	}
	return w, before, after, nil
}

// checkWarm fails a window whose scrapes do not show every cell served
// from the result cache: a miss, no hit at all, or no result-cache
// series (asapd exports them only while its cache is open).
func checkWarm(before, after scrape) error {
	for _, series := range []string{"asapd_resultcache_hits", "asapd_resultcache_misses"} {
		if _, ok := after[series]; !ok {
			return fmt.Errorf("workload is not warm: asapd exports no %s", series)
		}
	}
	if misses := delta(before, after, "asapd_resultcache_misses"); misses != 0 {
		return fmt.Errorf("workload is not warm: %g result-cache misses in the window", misses)
	}
	if delta(before, after, "asapd_resultcache_hits") == 0 {
		return errors.New("workload is not warm: no result-cache hits in the window")
	}
	return nil
}

// A service-warm window makes warmPassesPerRound passes over the
// experiments per warmRound of the measurement window, at least one
// round. The count depends on the window alone, never on how fast the
// host is, so every run reads its tail at the same percentile. A round
// is roughly what 15 passes (270 warm jobs) take on a 2-vCPU VM.
const (
	warmRound          = 15 * time.Second
	warmPassesPerRound = 15
	// serviceSetupRounds set-ups are timed, each a fresh daemon filling a
	// fresh cache, and their median reported; the last one serves the
	// window. Each fill simulates the whole quick matrix, so there are
	// only two.
	serviceSetupRounds = 2
)

// runService is the service-warm workload. Set-up starts asapd and fills
// its result cache with one cold job per experiment. Untraced, one
// closed-loop client then runs warm jobs. Traced, a second window keeps
// per-job spans and the daemon's /metrics deltas, and the layer probes
// run under the CPU profiler.
func runService(ctx context.Context, cfg config) (*outcome, error) {
	quick, err := loadOracle(filepath.Join(cfg.oracleDir, quickOracle))
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var (
		svc    *service
		setups []float64
	)
	for i := 0; i < serviceSetupRounds; i++ {
		if svc != nil {
			svc.close()
		}
		if svc, err = openService(ctx, cfg, quick, sweep.AllNames()); err != nil {
			return nil, err
		}
		out.attempted += svc.fill.attempted
		out.failed += svc.fill.failed
		setups = append(setups, svc.setup.Seconds())
	}
	defer svc.close()
	passes := warmPassesPerRound * max(1, int(cfg.window/warmRound))
	base, _, _, err := svc.warmWindow(ctx, cfg.seed, passes)
	if err != nil {
		return nil, err
	}
	out.attempted += base.attempted
	out.failed += base.failed
	lat := summarize(base.host.normalize(base.latenciesMS(func(sp jobSpan) time.Duration { return sp.DaemonCPU })))
	daemonCPU := base.daemonCPU.Seconds() / base.host.slowdown()
	fmt.Fprintf(cfg.log, "perfbench: %d warm jobs in %.3fs wall, %.3fs daemon CPU at reference speed (host %.3fx slower); job CPU p50 and p%g over %d samples\n",
		len(base.spans), base.wall.Seconds(), daemonCPU, base.host.slowdown(), lat.TailLevel, lat.N)
	if !cfg.trace {
		rss, err := peakRSSMB(svc.d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = medianOf(setups)
		out.metrics["throughput_per_cpu_s"] = float64(len(base.spans)) / daemonCPU
		out.metrics["cpu_p50_ms"] = lat.P50
		out.metrics["cpu_tail_ms"] = lat.Tail
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}

	traced, before, after, err := svc.warmWindow(ctx, cfg.seed, passes)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.attempted
	out.failed += traced.failed
	if err := writeSpans(filepath.Join(cfg.work, "service-warm-spans.json"), traced.spans); err != nil {
		return nil, err
	}

	// The simulator layers come from the probe's cold renders alone: its
	// wall time and runtime counts cover those and nothing else.
	cold := newSweepRun(cfg.log, false)
	var (
		probes map[string]float64
		rt     rtDelta
	)
	_, cpu, err := profiled(cfg.work, func() error {
		var perr error
		probes, rt, perr = runProbes(ctx, cfg.work, cold, quick)
		return perr
	})
	if err != nil {
		return nil, err
	}
	m := out.metrics
	addAll(m, cpu, probes)
	addSimLayers(m, cold, rt)
	addDaemonLayers(m, traced, before, after)
	m["trace.overhead"] = base.throughput() / traced.throughput()
	m["bench.samples"] = float64(lat.N)
	m["bench.tail_level"] = lat.TailLevel
	return out, nil
}

// sideServiceJobs is how many warm jobs the client runs on a sweep's
// side service, one per pass over its single experiment.
const sideServiceJobs = 100

// sideService measures the daemon layers on a sweep, which never
// reaches them: a small asapd whose cache holds the first probe
// experiment serves warm jobs of it. Its jobs are checked like any
// other and counted into out.
func sideService(ctx context.Context, cfg config, quick *oracle, out *outcome) error {
	svc, err := openService(ctx, cfg, quick, probeExperiments[:1])
	if err != nil {
		return err
	}
	defer svc.close()
	w, before, after, err := svc.warmWindow(ctx, cfg.seed, sideServiceJobs)
	if err != nil {
		return err
	}
	out.attempted += svc.fill.attempted + w.attempted
	out.failed += svc.fill.failed + w.failed
	addDaemonLayers(out.metrics, w, before, after)
	return nil
}

// addDaemonLayers records the client spans and the daemon's /metrics
// deltas over one traced window.
func addDaemonLayers(m map[string]float64, s *session, before, after scrape) {
	jobs := float64(s.attempted)
	meanMS := func(name, labels string) float64 {
		n, sum := histDelta(before, after, name, labels)
		return ratio(sum, n) * 1e3
	}
	m["client.submit_ms_p50"] = medianOf(s.latenciesMS(func(sp jobSpan) time.Duration { return sp.Submit }))
	m["client.wait_ms_p50"] = medianOf(s.latenciesMS(func(sp jobSpan) time.Duration { return sp.Wait }))
	m["client.fetch_ms_p50"] = medianOf(s.latenciesMS(func(sp jobSpan) time.Duration { return sp.Fetch }))
	m["asapd.exec_ms_mean"] = meanMS("asapd_exec_job_seconds", "")
	m["asapd.http_submit_ms"] = meanMS("asapd_http_request_seconds", `{route="/api/v1/jobs"}`)
	m["asapd.http_result_ms"] = meanMS("asapd_http_request_seconds", `{route="/api/v1/jobs/{id}/result"}`)
	m["asapd.journal_syncs_per_job"] = ratio(delta(before, after, "asapd_journal_syncs_total"), jobs)
	m["asapd.journal_bytes_per_job"] = ratio(delta(before, after, "asapd_journal_append_bytes_total"), jobs)
	m["asapd.compactions"] = delta(before, after, "asapd_journal_compactions_total")
	puts := delta(before, after, "asapd_store_puts_total")
	m["asapd.store_puts_per_job"] = ratio(puts, jobs)
	m["asapd.store_dedup_ratio"] = ratio(delta(before, after, "asapd_store_put_dedup_total"), puts)
	hits := delta(before, after, "asapd_resultcache_hits")
	m["asapd.cache_hit_ratio"] = ratio(hits, hits+delta(before, after, "asapd_resultcache_misses"))
}

// writeSpans writes the traced window's job spans as JSON.
func writeSpans(path string, spans []jobSpan) error {
	b, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
