package queue

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"asap/internal/iofault"
	"asap/internal/runner"
)

// The fault campaign is the queue's equivalent of internal/torture: a
// seeded sweep of kill -9-shaped failures. Every case enqueues a batch
// of deterministic jobs, then kills workers (injected panics) and the
// daemon itself at random points, restarts from what is left on disk,
// and lets the queue converge. Each daemon runs the production storage
// path — the segmented journal with small segments, so most cases
// rotate and compact — over an iofault.FaultFS. A kill is a Kill trip on
// a seeded journal sync: that sync tears the in-flight record, then the
// filesystem dies, so the abandoned daemon can neither roll the torn
// tail back nor change anything else on disk. The next phase reopens
// the directory and the journal's own replay drops the torn bytes. The
// checker then audits the journal ledger end to end: no admitted job
// lost, no job completed twice, every artifact byte-identical to a
// serial run of the same spec. Running the campaign with the journal
// disabled is the negative control: the kill then lands on an artifact
// store sync, and the checker must observe lost jobs, proving it can
// see the failure the journal exists to prevent.

// campaignSegmentBytes is the journal rotation threshold in campaign
// daemons: a case's few kilobytes of ledger cross it several times.
const campaignSegmentBytes = 1 << 10

// campaignSpec is the deterministic job payload: Work seeds the output,
// Spin sizes the hash chain standing in for simulation work.
type campaignSpec struct {
	Work int64 `json:"work"`
	Spin int   `json:"spin"`
}

// CampaignExec is the campaign's default executor: a pure function of
// the spec (a short hash chain), so redelivered work reproduces the same
// artifact — the property a real sweep executor gets from the
// bit-deterministic simulator.
func CampaignExec(ctx context.Context, raw json.RawMessage) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var spec campaignSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("asapd-campaign:%d", spec.Work)))
	for i := 0; i < spec.Spin; i++ {
		sum = sha256.Sum256(sum[:])
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "campaign artifact work=%d spin=%d\n", spec.Work, spec.Spin)
	fmt.Fprintf(&out, "digest %s\n", hex.EncodeToString(sum[:]))
	return out.Bytes(), nil
}

// CampaignConfig shapes a fault campaign.
type CampaignConfig struct {
	// Cases is the number of seeded cases (default 200).
	Cases int
	// Seed derives every kill point, panic budget and tear fraction.
	Seed int64
	// JobsPerCase is the batch size per case (default 4).
	JobsPerCase int
	// DaemonWorkers sizes each case's worker pool (default 3).
	DaemonWorkers int
	// MaxKills bounds daemon kills per case; each case draws its count
	// in [0, MaxKills] (default 2).
	MaxKills int
	// Workers parallelizes cases (0 = GOMAXPROCS).
	Workers int
	// Volatile disables the journal: the negative control. The checker
	// must then observe lost jobs.
	Volatile bool
	// Exec overrides the executor (default CampaignExec). It must be
	// deterministic per spec.
	Exec Executor
	// Dir roots the per-case artifact stores (default a temp dir,
	// removed afterwards).
	Dir string
	// ConvergeTimeout bounds each case (default 30s).
	ConvergeTimeout time.Duration
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Cases <= 0 {
		c.Cases = 200
	}
	if c.JobsPerCase <= 0 {
		c.JobsPerCase = 4
	}
	if c.DaemonWorkers <= 0 {
		c.DaemonWorkers = 3
	}
	if c.MaxKills == 0 {
		c.MaxKills = 2
	} else if c.MaxKills < 0 {
		c.MaxKills = 0
	}
	if c.Exec == nil {
		c.Exec = CampaignExec
	}
	if c.ConvergeTimeout <= 0 {
		c.ConvergeTimeout = 30 * time.Second
	}
	return c
}

// CaseResult is one case's audit outcome.
type CaseResult struct {
	Case         int      `json:"case"`
	DaemonKills  int      `json:"daemon_kills"`
	WorkerPanics int      `json:"worker_panics"`
	Redelivered  int64    `json:"redelivered"`
	TornTails    int      `json:"torn_tails"`
	Compactions  int64    `json:"compactions"`
	Lost         int      `json:"lost"`
	Doubled      int      `json:"doubled"`
	Mismatched   int      `json:"mismatched"`
	Failures     []string `json:"failures,omitempty"`
}

// CampaignSummary aggregates a campaign.
type CampaignSummary struct {
	Cases        int   `json:"cases"`
	DaemonKills  int   `json:"daemon_kills"`
	WorkerPanics int   `json:"worker_panics"`
	Redelivered  int64 `json:"redelivered"`
	// TornTails counts restarts whose journal replay dropped torn bytes:
	// a torn record, or a whole segment from a rotation the kill tore.
	TornTails int `json:"torn_tails"`
	// Compactions counts journal rotations across every daemon lifetime.
	Compactions int64 `json:"compactions"`
	Lost        int   `json:"lost"`
	Doubled     int   `json:"doubled"`
	Mismatched  int   `json:"mismatched"`
	// LossDetectedCases counts cases where the checker observed job
	// loss: zero in journaled campaigns, necessarily positive in the
	// volatile negative control.
	LossDetectedCases int `json:"loss_detected_cases"`
	// Failures lists every audit failure that is not an expected
	// volatile-mode loss; it must be empty for a passing campaign.
	Failures []string `json:"failures,omitempty"`
}

// Bad reports whether the campaign failed.
func (s *CampaignSummary) Bad() bool { return len(s.Failures) > 0 }

// campaignPlan is one planned job: its spec, the serial-oracle artifact
// it must converge on, and its injected worker-crash budget.
type campaignPlan struct {
	spec     json.RawMessage
	expected []byte
	panics   int
}

// RunCampaign executes the seeded kill/restart fault campaign and audits
// every case. See the comment at the top of this file for the model.
func RunCampaign(cfg CampaignConfig) (*CampaignSummary, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "asapd-campaign-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}

	jobs := make([]runner.Job[CaseResult], cfg.Cases)
	for i := 0; i < cfg.Cases; i++ {
		i := i
		jobs[i] = runner.Job[CaseResult]{
			Label: fmt.Sprintf("case%03d", i),
			Run:   func() CaseResult { return runCampaignCase(cfg, i) },
		}
	}
	results, err := runner.Collect(runner.New(cfg.Workers), jobs)
	if err != nil {
		return nil, fmt.Errorf("queue: campaign: %w", err)
	}

	sum := &CampaignSummary{Cases: cfg.Cases}
	for _, r := range results {
		sum.DaemonKills += r.DaemonKills
		sum.WorkerPanics += r.WorkerPanics
		sum.Redelivered += r.Redelivered
		sum.TornTails += r.TornTails
		sum.Compactions += r.Compactions
		sum.Lost += r.Lost
		sum.Doubled += r.Doubled
		sum.Mismatched += r.Mismatched
		if r.Lost > 0 {
			sum.LossDetectedCases++
		}
		for _, f := range r.Failures {
			// In the volatile control, loss is the expected observation —
			// the point is that the checker sees it. Everything else
			// always counts.
			if cfg.Volatile && isLossFailure(f) {
				continue
			}
			sum.Failures = append(sum.Failures, f)
		}
	}
	return sum, nil
}

// isLossFailure classifies the audit failures volatile mode expects.
func isLossFailure(f string) bool { return strings.Contains(f, "lost:") }

// panicBudget doles out injected worker panics: each job gets a seeded
// number of deliveries that panic before one is allowed to succeed.
type panicBudget struct {
	mu      sync.Mutex
	left    map[int64]int
	charged int
}

func (b *panicBudget) shouldPanic(work int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left[work] > 0 {
		b.left[work]--
		b.charged++
		return true
	}
	return false
}

func (b *panicBudget) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.charged
}

// runCampaignCase executes one seeded case end to end.
func runCampaignCase(cfg CampaignConfig, caseIdx int) CaseResult {
	res := CaseResult{Case: caseIdx}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures,
			fmt.Sprintf("case %d: ", caseIdx)+fmt.Sprintf(format, args...))
	}
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(caseIdx)))
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("case%03d", caseIdx))

	// Deterministic batch: each spec's expected artifact comes from a
	// serial run of the same executor — the campaign's stand-in for the
	// one-shot CLI oracle.
	plans := make([]campaignPlan, cfg.JobsPerCase)
	budget := &panicBudget{left: make(map[int64]int)}
	for i := range plans {
		work := cfg.Seed*int64(cfg.Cases+1)*17 + int64(caseIdx*cfg.JobsPerCase+i)
		spec, _ := json.Marshal(campaignSpec{Work: work, Spin: 1 + rng.Intn(64)})
		expected, err := cfg.Exec(context.Background(), spec)
		if err != nil {
			fail("serial oracle run failed: %v", err)
			return res
		}
		plans[i] = campaignPlan{spec: spec, expected: expected, panics: rng.Intn(3)}
		budget.mu.Lock()
		budget.left[work] = plans[i].panics
		budget.mu.Unlock()
	}
	faultExec := func(ctx context.Context, raw json.RawMessage) ([]byte, error) {
		var spec campaignSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, err
		}
		if budget.shouldPanic(spec.Work) {
			panic(fmt.Sprintf("injected worker crash (work=%d)", spec.Work))
		}
		return cfg.Exec(ctx, raw)
	}

	pol := Policy{
		// Generous dead-letter bound: injected panics plus orphaned-lease
		// charges from daemon kills must never push a healthy job into
		// the dead letter — the poison-job path has its own unit tests.
		MaxDeliveries: 25,
		LeaseTimeout:  2 * time.Second,
		BackoffBase:   time.Millisecond,
		BackoffCap:    4 * time.Millisecond,
	}

	kills := rng.Intn(cfg.MaxKills + 1)
	if cfg.Volatile && cfg.MaxKills > 0 {
		kills = 1 + rng.Intn(cfg.MaxKills) // the control must actually die
	}
	admitted := make(map[uint64]int) // job ID -> plan index
	toSubmit := 0
	deadline := time.Now().Add(cfg.ConvergeTimeout)

	for phase := 0; ; phase++ {
		// A killed phase dies at a seeded upcoming sync: a journal
		// segment's, or with no journal an artifact-store object's.
		var kill *iofault.Trip
		var fsSeed int64
		if phase < kills {
			kill = &iofault.Trip{Op: iofault.OpSync, Class: iofault.ClassTornSync, Kill: true}
			if cfg.Volatile {
				kill.N, kill.Substr = 1+rng.Intn(cfg.JobsPerCase), "objects"+string(filepath.Separator)
			} else {
				kill.N, kill.Substr = 1+rng.Intn(6), segPrefix
				fsSeed = rng.Int63()
			}
		}
		ffs := iofault.NewFaultFS(iofault.OS{}, fsSeed)
		d, err := Open(Config{
			Dir:                 dir,
			Workers:             cfg.DaemonWorkers,
			Policy:              pol,
			Exec:                faultExec,
			ExpireEvery:         5 * time.Millisecond,
			SeriesEvery:         -1,
			Logger:              discardLogger(),
			Volatile:            cfg.Volatile,
			FS:                  ffs,
			JournalSegmentBytes: campaignSegmentBytes,
		})
		if err != nil {
			fail("phase %d: open: %v", phase, err)
			return res
		}
		if d.JournalRep.TornBytes > 0 {
			res.TornTails++
		}
		if kill != nil {
			ffs.Arm(*kill)
		}
		d.Start()
		// Submit the not-yet-admitted jobs; a submit that hits the dead
		// filesystem simply never happened (the client saw the error and
		// will retry against the restarted daemon).
		for ; toSubmit < len(plans); toSubmit++ {
			id, err := d.Submit(plans[toSubmit].spec)
			if err != nil {
				break
			}
			admitted[id] = toSubmit
		}
		// Run until the daemon dies (killed phase) or the queue drains.
		for !ffs.Dead() && !(toSubmit == len(plans) && d.Q.Idle()) {
			if time.Now().After(deadline) {
				fail("phase %d: case did not converge within %s", phase, cfg.ConvergeTimeout)
				d.Kill()
				d.Q.Close()
				return res
			}
			time.Sleep(time.Millisecond)
		}
		// A kill armed for a sync that never came must not fire at close.
		ffs.Disarm()
		if j := d.Q.Journal(); j != nil {
			res.Compactions += j.Compactions()
		}
		if ffs.Dead() {
			// Abandon the daemon and release its files; the close changes
			// nothing on the dead filesystem. The next phase's open
			// truncates whatever torn tail the kill left.
			d.Kill()
			d.Q.Close()
			continue
		}
		// Clean finish: graceful drain, then audit.
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = d.Drain(drainCtx)
		cancel()
		if err != nil {
			fail("final drain: %v", err)
		}
		res.DaemonKills = phase
		break
	}

	res.WorkerPanics = budget.total()
	auditCase(cfg, &res, fail, plans, admitted, dir)
	return res
}

// auditCase checks one converged case: ledger discipline straight off
// the journal records, then end-state and artifact correctness from a
// fresh replay through the real state machine.
func auditCase(cfg CampaignConfig, res *CaseResult, fail func(string, ...any),
	plans []campaignPlan, admitted map[uint64]int, dir string) {

	st, err := OpenStore(dir)
	if err != nil {
		fail("audit: opening store: %v", err)
		return
	}

	if cfg.Volatile {
		// No journal: the queue died with the last daemon's memory. Every
		// admitted job whose artifact never reached the store is lost.
		for id, pi := range admitted {
			if !st.Has(HashBytes(plans[pi].expected)) {
				res.Lost++
				fail("job %d lost: no durable record survives the kill", id)
			}
		}
		return
	}

	j, recs, _, err := OpenDirJournal(iofault.OS{}, dir, JournalOptions{})
	if err != nil {
		fail("audit: replay: %v", err)
		return
	}
	j.Close()

	// Ledger audit: at most one ack per job, every ack/fail/release
	// matching a live lease, delivery numbering monotone. A checkpoint
	// resets the ledger to its image: charged deliveries and live leases
	// come from it, and a done job counts as acked once, so an ack after
	// the checkpoint is a double completion.
	acks := make(map[uint64]int)
	liveLease := make(map[uint64]int) // id -> currently leased delivery
	charged := make(map[uint64]int)
	var redelivered int64
	for i, rec := range recs {
		switch rec.Type {
		case RecEnqueue:
		case RecLease:
			if rec.Delivery != charged[rec.ID]+1 {
				fail("record %d: lease delivery %d after %d charged", i, rec.Delivery, charged[rec.ID])
			}
			liveLease[rec.ID] = rec.Delivery
			charged[rec.ID] = rec.Delivery
			if rec.Delivery > 1 {
				redelivered++
			}
		case RecAck:
			if liveLease[rec.ID] != rec.Delivery {
				fail("record %d: ack without live lease (job %d delivery %d)", i, rec.ID, rec.Delivery)
			}
			acks[rec.ID]++
			delete(liveLease, rec.ID)
		case RecFail:
			if liveLease[rec.ID] != rec.Delivery {
				fail("record %d: fail without live lease (job %d)", i, rec.ID)
			}
			delete(liveLease, rec.ID)
		case RecRelease:
			if liveLease[rec.ID] != rec.Delivery {
				fail("record %d: release without live lease (job %d)", i, rec.ID)
			}
			delete(liveLease, rec.ID)
			charged[rec.ID]-- // uncharged
		case RecCheckpoint:
			if rec.Checkpoint == nil {
				fail("record %d: checkpoint without state", i)
				continue
			}
			acks, liveLease, charged = make(map[uint64]int), make(map[uint64]int), make(map[uint64]int)
			redelivered = 0
			for _, cj := range rec.Checkpoint.Jobs {
				charged[cj.ID] = cj.Deliveries
				if cj.Deliveries > 1 {
					redelivered += int64(cj.Deliveries - 1)
				}
				switch cj.State {
				case StateLeased:
					liveLease[cj.ID] = cj.Deliveries
				case StateDone:
					acks[cj.ID] = 1
				}
			}
		default:
			fail("record %d: unknown type %d", i, rec.Type)
		}
	}
	res.Redelivered = redelivered
	for id, n := range acks {
		if n > 1 {
			res.Doubled++
			fail("job %d completed %d times", id, n)
		}
	}

	// End-state audit via a fresh replay through the real state machine.
	q, _, err := Restore(Policy{MaxDeliveries: 1 << 30}, Options{}, recs)
	if err != nil {
		fail("audit: restore: %v", err)
		return
	}
	for id, pi := range admitted {
		info, ok := q.Get(id)
		if !ok {
			res.Lost++
			fail("job %d lost: admitted but absent from the journal", id)
			continue
		}
		if info.State != StateDone {
			res.Lost++
			fail("job %d lost: final state %s (deliveries %d, last error %q)",
				id, info.State, info.Deliveries, info.LastError)
			continue
		}
		want := plans[pi].expected
		if info.Hash != HashBytes(want) {
			res.Mismatched++
			fail("job %d artifact hash %s != serial run %s", id, info.Hash, HashBytes(want))
			continue
		}
		got, err := st.Get(info.Hash)
		if err != nil {
			res.Mismatched++
			fail("job %d artifact unreadable: %v", id, err)
			continue
		}
		if !bytes.Equal(got, want) {
			res.Mismatched++
			fail("job %d artifact bytes differ from serial run", id)
		}
	}
}
