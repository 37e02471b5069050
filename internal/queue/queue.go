package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"asap/internal/metrics"
)

// JobState is a job's position in the lease state machine:
//
//	pending --Lease--> leased --Ack-----------------> done
//	   ^                  |
//	   |                  +--Fail (retries left)--> pending (backoff gate)
//	   |                  +--Fail (final)---------> dead
//	   +---Release (uncharged, drain checkpoint)----+
//
// A daemon restart finds jobs still leased in the journal (their workers
// died with the process); recovery expires those orphaned leases as
// charged failures, so a job that keeps killing its worker still
// converges on the dead-letter verdict instead of looping forever.
type JobState string

const (
	StatePending JobState = "pending"
	StateLeased  JobState = "leased"
	StateDone    JobState = "done"
	StateDead    JobState = "dead"
)

// Policy shapes redelivery: lease length, capped exponential backoff,
// and the max-deliveries dead-letter bound.
type Policy struct {
	// MaxDeliveries dead-letters a job after this many charged deliveries
	// (leases that ended in failure or orphanhood). Default 5.
	MaxDeliveries int
	// LeaseTimeout is how long a worker may hold a job before the daemon
	// revokes the lease and redelivers. Default 2 minutes.
	LeaseTimeout time.Duration
	// BackoffBase is the retry gate after the first failed delivery; it
	// doubles per subsequent failure up to BackoffCap. Defaults 250ms/30s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// RetainTerminal bounds how many terminal (done/dead) jobs a
	// compaction checkpoint carries forward: the newest N survive, older
	// ones are shed from both the journal and the job table (their
	// artifacts remain in the content-addressed store). 0 retains all —
	// compaction then only squashes transition history, never forgets a
	// job.
	RetainTerminal int
}

func (p Policy) withDefaults() Policy {
	if p.MaxDeliveries <= 0 {
		p.MaxDeliveries = 5
	}
	if p.LeaseTimeout <= 0 {
		p.LeaseTimeout = 2 * time.Minute
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 250 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 30 * time.Second
	}
	return p
}

// Backoff returns the retry gate after the given number of charged
// deliveries: base doubled per extra failure, capped.
func (p Policy) Backoff(deliveries int) time.Duration {
	d := p.BackoffBase
	for i := 1; i < deliveries; i++ {
		d *= 2
		if d >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// Lease is a worker's claim on one delivery of one job. Ack, Fail and
// Release validate (ID, Delivery) against the live lease, so a worker
// whose lease expired — and whose job was redelivered — cannot complete
// or fail the job a second time.
type Lease struct {
	ID       uint64
	Delivery int
	Spec     json.RawMessage
	Worker   string
	Deadline time.Time
}

// JobInfo is an API-facing job snapshot.
type JobInfo struct {
	ID         uint64          `json:"id"`
	State      JobState        `json:"state"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	Deliveries int             `json:"deliveries"`
	Worker     string          `json:"worker,omitempty"`
	Hash       string          `json:"hash,omitempty"`
	Manifest   string          `json:"manifest,omitempty"`
	LastError  string          `json:"last_error,omitempty"`
	NotBefore  time.Time       `json:"not_before,omitempty"`
	Deadline   time.Time       `json:"deadline,omitempty"`
}

// Depths is the queue-depth gauge set.
type Depths struct {
	Pending  int `json:"pending"`
	Eligible int `json:"eligible"` // pending jobs past their backoff gate
	Leased   int `json:"leased"`
	Done     int `json:"done"`
	Dead     int `json:"dead"`
}

// Counter names the queue maintains in its stats set.
const (
	CtrEnqueued    = "queue.enqueued"
	CtrLeased      = "queue.leased"
	CtrAcked       = "queue.acked"
	CtrFailed      = "queue.failed"
	CtrRedelivered = "queue.redelivered"
	CtrExpired     = "queue.expired"
	CtrReleased    = "queue.released"
	CtrDead        = "queue.dead"
	CtrOrphaned    = "queue.orphaned"
	CtrLeaseLost   = "queue.lease_lost"
)

// Queue errors.
var (
	// ErrLeaseLost rejects an Ack/Fail/Release whose lease is no longer
	// live: it expired and the job was redelivered, or the job already
	// completed. This is the double-completion guard.
	ErrLeaseLost = errors.New("queue: lease no longer held")
	ErrClosed    = errors.New("queue: closed")
	// ErrCorrupt means the journal decoded but its record sequence is not
	// a legal state-machine history.
	ErrCorrupt = errors.New("queue: journal history corrupt")
)

// job is the internal mutable job record.
type job struct {
	id         uint64
	spec       json.RawMessage
	state      JobState
	deliveries int
	worker     string
	deadline   time.Time
	notBefore  time.Time
	hash       string
	manifest   string
	lastErr    string
}

// Queue is the journal-backed job table. All methods are safe for
// concurrent use. A nil journal (volatile mode) keeps the same semantics
// minus durability — the fault campaign's negative control, which must
// observably lose jobs across a simulated kill.
type Queue struct {
	mu     sync.Mutex
	j      *Journal // nil in volatile mode
	pol    Policy
	now    func() time.Time
	jobs   map[uint64]*job
	order  []uint64 // insertion order, for deterministic scans and listings
	nextID uint64
	closed bool
	shed   int64 // terminal jobs dropped by checkpoints, cumulative
	ctr    map[string]int64
	met    *metrics.CounterVec // transition counters; nil until attached
	notify chan struct{}
}

// Options configures New beyond the policy.
type Options struct {
	// Journal persists transitions; nil runs volatile (no durability).
	Journal *Journal
	// Clock overrides time.Now, letting tests and the campaign drive
	// lease expiry deterministically.
	Clock func() time.Time
}

// New builds an empty queue.
func New(pol Policy, opt Options) *Queue {
	now := opt.Clock
	if now == nil {
		now = time.Now
	}
	return &Queue{
		j:      opt.Journal,
		pol:    pol.withDefaults(),
		now:    now,
		jobs:   make(map[uint64]*job),
		nextID: 1,
		ctr:    make(map[string]int64),
		notify: make(chan struct{}, 1),
	}
}

// RecoverResult reports what Restore found.
type RecoverResult struct {
	Jobs     int `json:"jobs"`
	Pending  int `json:"pending"`
	Done     int `json:"done"`
	Dead     int `json:"dead"`
	Orphaned int `json:"orphaned"`
}

// Restore rebuilds a queue from replayed journal records and expires
// every orphaned lease (journaling the expiry through j, which must be
// the journal the records came from). It must be called before the
// queue is shared.
func Restore(pol Policy, opt Options, recs []Record) (*Queue, RecoverResult, error) {
	q := New(pol, opt)
	for i, rec := range recs {
		if err := q.apply(rec); err != nil {
			return nil, RecoverResult{}, fmt.Errorf("%w: record %d (%s id=%d): %v",
				ErrCorrupt, i, rec.Type, rec.ID, err)
		}
	}
	var res RecoverResult
	res.Jobs = len(q.order)
	// Orphaned leases: their workers died with the previous process.
	// Charge the delivery (the worker may have died *because* of the job)
	// and either gate a retry or dead-letter, write-ahead as usual.
	for _, id := range q.order {
		jb := q.jobs[id]
		if jb.state != StateLeased {
			continue
		}
		res.Orphaned++
		rec := q.failRecord(jb, "orphaned lease: daemon restart")
		if q.j != nil {
			if err := q.j.Append(rec); err != nil {
				return nil, res, err
			}
		}
		if err := q.apply(rec); err != nil {
			return nil, res, err
		}
		q.bump(CtrOrphaned)
	}
	for _, id := range q.order {
		switch q.jobs[id].state {
		case StatePending:
			res.Pending++
		case StateDone:
			res.Done++
		case StateDead:
			res.Dead++
		}
	}
	return q, res, nil
}

// failRecord builds the RecFail for one charged failed delivery of jb,
// deciding retry-with-backoff versus dead-letter. Callers hold q.mu or
// have exclusive access.
func (q *Queue) failRecord(jb *job, reason string) Record {
	rec := Record{
		Type:     RecFail,
		ID:       jb.id,
		Delivery: jb.deliveries,
		Reason:   reason,
		At:       q.now().UnixNano(),
	}
	if jb.deliveries >= q.pol.MaxDeliveries {
		rec.Final = true
	} else {
		rec.NotBefore = q.now().Add(q.pol.Backoff(jb.deliveries)).UnixNano()
	}
	return rec
}

// apply folds one record into the in-memory state, validating the
// transition. It is the single interpreter used both at replay and —
// after the write-ahead append — at run time, so the live state machine
// and the recovered one cannot drift apart.
func (q *Queue) apply(rec Record) error {
	switch rec.Type {
	case RecEnqueue:
		if _, dup := q.jobs[rec.ID]; dup {
			return fmt.Errorf("duplicate enqueue")
		}
		q.jobs[rec.ID] = &job{id: rec.ID, spec: rec.Spec, state: StatePending}
		q.order = append(q.order, rec.ID)
		if rec.ID >= q.nextID {
			q.nextID = rec.ID + 1
		}
	case RecLease:
		jb := q.jobs[rec.ID]
		if jb == nil || jb.state != StatePending {
			return fmt.Errorf("lease of non-pending job")
		}
		if rec.Delivery != jb.deliveries+1 {
			return fmt.Errorf("lease delivery %d after %d charged", rec.Delivery, jb.deliveries)
		}
		jb.state = StateLeased
		jb.deliveries = rec.Delivery
		jb.worker = rec.Worker
		jb.deadline = time.Unix(0, rec.Deadline)
		jb.notBefore = time.Time{}
	case RecAck:
		jb := q.jobs[rec.ID]
		if jb == nil || jb.state != StateLeased || jb.deliveries != rec.Delivery {
			return fmt.Errorf("ack without matching live lease")
		}
		jb.state = StateDone
		jb.hash = rec.Hash
		jb.manifest = rec.Manifest
		jb.worker = ""
	case RecFail:
		jb := q.jobs[rec.ID]
		if jb == nil || jb.state != StateLeased || jb.deliveries != rec.Delivery {
			return fmt.Errorf("fail without matching live lease")
		}
		jb.lastErr = rec.Reason
		jb.worker = ""
		if rec.Final {
			jb.state = StateDead
		} else {
			jb.state = StatePending
			jb.notBefore = time.Unix(0, rec.NotBefore)
		}
	case RecRelease:
		jb := q.jobs[rec.ID]
		if jb == nil || jb.state != StateLeased || jb.deliveries != rec.Delivery {
			return fmt.Errorf("release without matching live lease")
		}
		jb.state = StatePending
		jb.deliveries-- // uncharged: the delivery never really happened
		jb.worker = ""
		jb.notBefore = time.Time{}
	case RecCheckpoint:
		cp := rec.Checkpoint
		if cp == nil {
			return fmt.Errorf("checkpoint record without state")
		}
		// A checkpoint is a full image: replace the job table. At replay it
		// makes everything before it inert; at run time (applied right
		// after a successful rotation) it is an identity transform except
		// for the terminal jobs the checkpoint shed — dropping them from
		// memory too keeps the live table equal to what a restart rebuilds.
		jobs := make(map[uint64]*job, len(cp.Jobs))
		order := make([]uint64, 0, len(cp.Jobs))
		for _, cj := range cp.Jobs {
			if _, dup := jobs[cj.ID]; dup {
				return fmt.Errorf("duplicate job %d in checkpoint", cj.ID)
			}
			jb := &job{
				id:         cj.ID,
				spec:       cj.Spec,
				state:      cj.State,
				deliveries: cj.Deliveries,
				worker:     cj.Worker,
				hash:       cj.Hash,
				manifest:   cj.Manifest,
				lastErr:    cj.LastError,
			}
			switch cj.State {
			case StatePending, StateLeased, StateDone, StateDead:
			default:
				return fmt.Errorf("job %d in checkpoint has unknown state %q", cj.ID, cj.State)
			}
			if cj.Deadline != 0 {
				jb.deadline = time.Unix(0, cj.Deadline)
			}
			if cj.NotBefore != 0 {
				jb.notBefore = time.Unix(0, cj.NotBefore)
			}
			jobs[cj.ID] = jb
			order = append(order, cj.ID)
		}
		q.jobs, q.order = jobs, order
		if cp.NextID > q.nextID {
			q.nextID = cp.NextID
		}
		q.shed = cp.Shed
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	return nil
}

// commit write-aheads rec, then applies it. On journal failure the state
// is untouched and the error is returned — once the journal has failed
// for good (a rollback that could not land, as under a killed
// filesystem) every transition from here on fails, which is exactly the
// semantics of being dead.
func (q *Queue) commit(rec Record) error {
	if q.j != nil {
		if err := q.j.Append(rec); err != nil {
			return err
		}
	}
	if err := q.apply(rec); err != nil {
		// The journal accepted a record the state machine rejects: a bug,
		// not an I/O condition. Surface loudly.
		panic(fmt.Sprintf("queue: committed record does not apply: %v", err))
	}
	q.maybeCompact()
	return nil
}

// maybeCompact rotates the journal when the active segment has crossed
// its size threshold, seeding the new segment with a checkpoint of the
// live state. Rotation failures are absorbed: the old segment keeps
// accepting appends (nothing is lost, the journal is just longer than
// intended) and the next threshold crossing retries. Callers hold q.mu
// — the journal's own lock nests inside it, never the other way.
func (q *Queue) maybeCompact() {
	if q.j == nil || !q.j.ShouldRotate() {
		return
	}
	cp := q.checkpointRecord()
	if err := q.j.Rotate(cp); err != nil {
		return
	}
	if err := q.apply(cp); err != nil {
		panic(fmt.Sprintf("queue: own checkpoint does not apply: %v", err))
	}
}

// checkpointRecord images the live queue into a RecCheckpoint. Under
// Policy.RetainTerminal, the oldest terminal jobs beyond the bound are
// shed (pending and leased jobs are always retained). Callers hold q.mu.
func (q *Queue) checkpointRecord() Record {
	cp := &CheckpointState{NextID: q.nextID, Shed: q.shed}
	shed := 0
	if retain := q.pol.RetainTerminal; retain > 0 {
		terminal := 0
		for _, id := range q.order {
			if st := q.jobs[id].state; st == StateDone || st == StateDead {
				terminal++
			}
		}
		if terminal > retain {
			shed = terminal - retain
		}
	}
	for _, id := range q.order {
		jb := q.jobs[id]
		if shed > 0 && (jb.state == StateDone || jb.state == StateDead) {
			shed--
			cp.Shed++
			continue
		}
		cj := CheckpointJob{
			ID:         jb.id,
			Spec:       jb.spec,
			State:      jb.state,
			Deliveries: jb.deliveries,
			Worker:     jb.worker,
			Hash:       jb.hash,
			Manifest:   jb.manifest,
			LastError:  jb.lastErr,
		}
		if !jb.deadline.IsZero() {
			cj.Deadline = jb.deadline.UnixNano()
		}
		if !jb.notBefore.IsZero() {
			cj.NotBefore = jb.notBefore.UnixNano()
		}
		cp.Jobs = append(cp.Jobs, cj)
	}
	return Record{Type: RecCheckpoint, Checkpoint: cp, At: q.now().UnixNano()}
}

// Shed returns the cumulative count of terminal jobs dropped by
// compaction checkpoints under Policy.RetainTerminal.
func (q *Queue) Shed() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shed
}

// wake signals one waiting lessee without blocking.
func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Notify returns the channel pulsed whenever a job may have become
// leasable (enqueue, requeue, expiry). Workers select on it.
func (q *Queue) Notify() <-chan struct{} { return q.notify }

// Journal exposes the backing journal (nil in volatile mode) so the
// daemon can attach instruments and report its size.
func (q *Queue) Journal() *Journal { return q.j }

// setMetrics mirrors the queue's transition counters into a labelled
// metric family. Values already accumulated — recovery bumps orphaned/
// failed/dead before the daemon can attach instruments — are synced in,
// so a post-restart scrape agrees with the recovery report.
func (q *Queue) setMetrics(vec *metrics.CounterVec) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.met = vec
	for name, v := range q.ctr {
		if lbl, ok := transitionLabel[name]; ok {
			vec.With(lbl).Add(float64(v))
		}
	}
}

// bump charges one lifetime counter and its metric mirror. Callers
// hold q.mu.
func (q *Queue) bump(name string) {
	q.ctr[name]++
	if q.met != nil {
		if lbl, ok := transitionLabel[name]; ok {
			q.met.With(lbl).Inc()
		}
	}
}

// Enqueue admits a job and returns its ID.
func (q *Queue) Enqueue(spec json.RawMessage) (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	id := q.nextID
	rec := Record{Type: RecEnqueue, ID: id, Spec: spec, At: q.now().UnixNano()}
	if err := q.commit(rec); err != nil {
		return 0, err
	}
	q.bump(CtrEnqueued)
	q.wake()
	return id, nil
}

// TryLease claims the oldest eligible pending job for worker. When
// nothing is eligible, ok is false and wait is the duration until the
// earliest backoff gate opens (zero when no pending job exists at all).
func (q *Queue) TryLease(worker string) (l *Lease, wait time.Duration, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, 0, ErrClosed
	}
	now := q.now()
	var pick *job
	for _, id := range q.order {
		jb := q.jobs[id]
		if jb.state != StatePending {
			continue
		}
		if jb.notBefore.After(now) {
			if gate := jb.notBefore.Sub(now); wait == 0 || gate < wait {
				wait = gate
			}
			continue
		}
		pick = jb
		break
	}
	if pick == nil {
		return nil, wait, nil
	}
	deadline := now.Add(q.pol.LeaseTimeout)
	rec := Record{
		Type:     RecLease,
		ID:       pick.id,
		Delivery: pick.deliveries + 1,
		Worker:   worker,
		Deadline: deadline.UnixNano(),
		At:       now.UnixNano(),
	}
	if err := q.commit(rec); err != nil {
		return nil, 0, err
	}
	q.bump(CtrLeased)
	if rec.Delivery > 1 {
		q.bump(CtrRedelivered)
	}
	return &Lease{
		ID:       pick.id,
		Delivery: rec.Delivery,
		Spec:     pick.spec,
		Worker:   worker,
		Deadline: deadline,
	}, 0, nil
}

// leaseLive reports whether l is still the live lease on its job.
// Callers hold q.mu.
func (q *Queue) leaseLive(l *Lease) *job {
	jb := q.jobs[l.ID]
	if jb == nil || jb.state != StateLeased || jb.deliveries != l.Delivery {
		return nil
	}
	return jb
}

// Ack completes l's job with the artifact hash and (optionally) the
// content address of its artifact manifest. ErrLeaseLost means the
// lease expired (the job was redelivered) or the job already finished;
// the caller's work must be discarded, never recorded twice.
func (q *Queue) Ack(l *Lease, hash, manifest string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.leaseLive(l) == nil {
		q.bump(CtrLeaseLost)
		return ErrLeaseLost
	}
	rec := Record{Type: RecAck, ID: l.ID, Delivery: l.Delivery, Hash: hash, Manifest: manifest, At: q.now().UnixNano()}
	if err := q.commit(rec); err != nil {
		return err
	}
	q.bump(CtrAcked)
	return nil
}

// Fail charges a failed delivery on l's job: retry with backoff while
// deliveries remain, dead-letter otherwise. dead reports the verdict.
func (q *Queue) Fail(l *Lease, reason string) (dead bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, ErrClosed
	}
	jb := q.leaseLive(l)
	if jb == nil {
		q.bump(CtrLeaseLost)
		return false, ErrLeaseLost
	}
	rec := q.failRecord(jb, reason)
	if err := q.commit(rec); err != nil {
		return false, err
	}
	q.bump(CtrFailed)
	if rec.Final {
		q.bump(CtrDead)
	} else {
		q.wake()
	}
	return rec.Final, nil
}

// Release returns l's job to pending without charging the delivery —
// the drain checkpoint: the worker was asked to abandon a healthy job.
func (q *Queue) Release(l *Lease) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.leaseLive(l) == nil {
		q.bump(CtrLeaseLost)
		return ErrLeaseLost
	}
	rec := Record{Type: RecRelease, ID: l.ID, Delivery: l.Delivery, At: q.now().UnixNano()}
	if err := q.commit(rec); err != nil {
		return err
	}
	q.bump(CtrReleased)
	q.wake()
	return nil
}

// Extend pushes l's deadline out by one lease timeout — a progress
// heartbeat from a worker that just finished a unit of real work (e.g.
// one experiment of a long sweep). Deadlines are process-local (a
// restart orphans every lease regardless), so extension is memory-only
// and never journaled. ErrLeaseLost means the lease already expired.
func (q *Queue) Extend(l *Lease) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	jb := q.leaseLive(l)
	if jb == nil {
		return ErrLeaseLost
	}
	jb.deadline = q.now().Add(q.pol.LeaseTimeout)
	return nil
}

// ExpiredLease identifies one revoked lease.
type ExpiredLease struct {
	ID       uint64
	Delivery int
	Worker   string
	Dead     bool
}

// ExpireLeases revokes every lease past its deadline, charging the
// delivery (retry with backoff, or dead-letter at the bound). The daemon
// calls it on a ticker and cancels the named workers' job contexts.
func (q *Queue) ExpireLeases() ([]ExpiredLease, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	now := q.now()
	var out []ExpiredLease
	for _, id := range q.order {
		jb := q.jobs[id]
		if jb.state != StateLeased || jb.deadline.After(now) {
			continue
		}
		ex := ExpiredLease{ID: jb.id, Delivery: jb.deliveries, Worker: jb.worker}
		rec := q.failRecord(jb, fmt.Sprintf("lease expired (worker %s stalled past deadline)", jb.worker))
		if err := q.commit(rec); err != nil {
			return out, err
		}
		ex.Dead = rec.Final
		q.bump(CtrExpired)
		if rec.Final {
			q.bump(CtrDead)
		}
		out = append(out, ex)
	}
	if len(out) > 0 {
		q.wake()
	}
	return out, nil
}

// Get returns a job snapshot.
func (q *Queue) Get(id uint64) (JobInfo, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return q.info(jb), true
}

// List returns every job in enqueue order.
func (q *Queue) List() []JobInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobInfo, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.info(q.jobs[id]))
	}
	return out
}

func (q *Queue) info(jb *job) JobInfo {
	return JobInfo{
		ID:         jb.id,
		State:      jb.state,
		Spec:       jb.spec,
		Deliveries: jb.deliveries,
		Worker:     jb.worker,
		Hash:       jb.hash,
		Manifest:   jb.manifest,
		LastError:  jb.lastErr,
		NotBefore:  jb.notBefore,
		Deadline:   jb.deadline,
	}
}

// Depths returns the state-population gauges.
func (q *Queue) Depths() Depths {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var d Depths
	for _, jb := range q.jobs {
		switch jb.state {
		case StatePending:
			d.Pending++
			if !jb.notBefore.After(now) {
				d.Eligible++
			}
		case StateLeased:
			d.Leased++
		case StateDone:
			d.Done++
		case StateDead:
			d.Dead++
		}
	}
	return d
}

// Counters snapshots the queue's lifetime counters, sorted by name in
// the returned slice order via Names.
func (q *Queue) Counters() map[string]int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int64, len(q.ctr))
	for k, v := range q.ctr {
		out[k] = v
	}
	return out
}

// CounterNames returns the touched counter names, sorted.
func (q *Queue) CounterNames() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	names := make([]string, 0, len(q.ctr))
	for k := range q.ctr {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Idle reports whether no job is pending or leased — the queue has
// nothing left to do until another enqueue.
func (q *Queue) Idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, jb := range q.jobs {
		if jb.state == StatePending || jb.state == StateLeased {
			return false
		}
	}
	return true
}

// Close marks the queue closed (operations fail) and closes the journal.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	close(q.notify)
	if q.j != nil {
		return q.j.Close()
	}
	return nil
}
