// Package ingest defines the one typed write-side contract every ingesting
// surface of this repository feeds: a Batch names what is being written
// (items, their producer, an optional epoch tag) and an Ack reports what
// happened to it, mirroring what internal/query did for the read side.
// queryd's /v1/insert and /v2/ingest endpoints, the WAL's records, and the
// netsum collector's wire frames all speak it.
//
// Standalone serving applies batches synchronously (queryd.SketchBackend):
// its Ack means "applied". Pipeline is the netsum collector's write plane:
// N workers drain bounded queues of batches, land each one in its source
// agent's sketch through the Apply hook (per-source order preserved), and
// accumulate it into a PRIVATE same-Spec delta that is folded into the
// collector's merged global view under one short lock per flush (on size or
// age) using the sketch.Mergeable capability. The explicit backpressure
// policy (Block vs Drop) decides what a full queue does, and Drain is the
// read-your-writes barrier the collector's query paths take.
package ingest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Batch is one unit of write-side work: the items to ingest, who produced
// them, and (optionally) which epoch they belong to.
type Batch struct {
	// Items are the key-value increments, in producer order.
	Items []stream.Item
	// Source attributes the batch to its producer (a netsum agent ID, an
	// HTTP client's shard hint, ...). Batches from the same non-zero Source
	// are processed in submission order by a single worker, which is what
	// preserves per-agent attribution; Source 0 spreads round-robin.
	Source uint64
	// Epoch optionally tags the batch with a producer-side epoch sequence
	// number. It travels with the batch (the WAL records it) but does not
	// steer where the batch lands. 0 means untagged.
	Epoch uint64
}

// Ack reports a Submit's outcome. Under the Block policy every item is
// accepted (the submit waited for queue space); under Drop a full queue
// rejects the whole batch and Dropped says so — the caller knows exactly
// how many items were refused instead of silently losing them.
type Ack struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	// Generation is the target's sealed-set generation at acknowledgement
	// time, stamped by the serving edge (queryd, collector); 0 when the
	// target has no generations (cumulative sketches).
	Generation uint64 `json:"generation"`
}

// ErrLostWrites marks a pipeline that lost acked items: a worker's fold or
// apply failed, so the target's certified state no longer covers traffic
// that producers were told was accepted. Drain, Err and Close wrap it once
// a worker fails; serving edges map it to a hard 500, since no retry (here
// or on another node) can restore the lost writes.
var ErrLostWrites = errors.New("ingest: pipeline lost acked items")

// Policy is the explicit backpressure decision for a full worker queue.
type Policy uint8

const (
	// Block makes Submit wait for queue space: no item is ever dropped, and
	// a saturated pipeline pushes back on producers (the TCP-friendly
	// default — backpressure propagates to the wire).
	Block Policy = iota
	// Drop makes Submit reject the whole batch when its worker's queue is
	// full, counting the loss in the Ack and pipeline stats. For telemetry
	// that prefers freshness over completeness.
	Drop
)

// String renders the policy's flag spelling.
func (p Policy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// ParsePolicy reads a -ingest-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "block", "":
		return Block, nil
	case "drop":
		return Drop, nil
	}
	return Block, fmt.Errorf("ingest: unknown backpressure policy %q (want block or drop)", s)
}

// Defaults for Tuning's zero fields.
const (
	// DefaultWorkers is deliberately modest: each worker owns a full
	// same-Spec delta sketch, so workers cost memory, and two already
	// decouple producers from fold latency. Raise it to scale ingest with
	// cores.
	DefaultWorkers = 2
	// DefaultQueue bounds each worker's queue in batches, not items: a
	// batch is the unit producers block or drop on.
	DefaultQueue = 64
	// DefaultFlushItems is the delta-size flush threshold. Large enough to
	// amortize the merge walk (a fold visits the whole delta regardless of
	// how few items it holds), small enough to bound staleness.
	DefaultFlushItems = 8192
	// DefaultFlushAge bounds how long a trickle of items can sit unfolded.
	DefaultFlushAge = 50 * time.Millisecond
)

// Tuning is the operator-visible pipeline shape, the struct the collector
// daemons' -ingest-workers/-ingest-queue/-ingest-policy flags fill. Zero
// fields take the defaults above.
type Tuning struct {
	// Workers is the number of writer goroutines (and private deltas).
	Workers int
	// Queue is each worker's bounded queue capacity in batches.
	Queue int
	// Policy picks what a full queue does to Submit: Block or Drop.
	Policy Policy
	// FlushItems folds a worker's delta once it holds this many items.
	FlushItems int
	// FlushAge folds a non-empty delta at least this often, so quiet
	// sources still become visible.
	FlushAge time.Duration
}

// withDefaults resolves zero fields.
func (t Tuning) withDefaults() Tuning {
	if t.Workers <= 0 {
		t.Workers = DefaultWorkers
	}
	if t.Queue <= 0 {
		t.Queue = DefaultQueue
	}
	if t.FlushItems <= 0 {
		t.FlushItems = DefaultFlushItems
	}
	if t.FlushAge <= 0 {
		t.FlushAge = DefaultFlushAge
	}
	return t
}

// Options configures a Pipeline: the tuning knobs plus the hooks binding it
// to a concrete target. At least one of Apply and Fold must be set.
type Options struct {
	Tuning

	// NewDelta builds one private delta sketch per worker — a same-Spec
	// sibling of the fold target, so Fold can merge it. Required when Fold
	// is set. Deltas are Reset between flushes when they support it and
	// rebuilt otherwise.
	NewDelta func() sketch.Sketch
	// Fold folds a worker's delta into the shared target under the
	// target's own short lock (the collector's globalMu merge). It runs at most once per flush per
	// worker — the only moment the pipeline touches shared write state.
	// nil disables delta accumulation: the pipeline applies batches through
	// Apply alone.
	Fold func(delta sketch.Sketch) error
	// Apply, when set, runs for every dequeued batch before accumulation —
	// the per-batch attribution hook (the netsum collector lands the batch
	// in its Source agent's own sketch here). Batches from one Source are
	// applied in order by one worker.
	Apply func(Batch) error
	// Logf receives worker-side errors (failed folds or applies — with
	// same-Spec deltas these indicate bugs, not operational conditions);
	// nil silences them. Errors are also retained for Err and Stats.
	Logf func(format string, args ...any)
}

// Stats is a pipeline's observability snapshot. All counters are items, not
// batches, except Folds.
type Stats struct {
	Workers   int    `json:"workers"`
	Policy    string `json:"policy"`
	Submitted uint64 `json:"submitted"`
	Accepted  uint64 `json:"accepted"`
	Dropped   uint64 `json:"dropped"`
	// Applied counts items a worker has fully processed (attributed and
	// accumulated); Accepted − Applied is the queued backlog.
	Applied uint64 `json:"applied"`
	// Folds counts delta→target merges; FoldedItems the items they carried.
	Folds       uint64 `json:"folds"`
	FoldedItems uint64 `json:"folded_items"`
	// LastError is the most recent worker-side failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// qitem is one queue entry: a data batch, or a drain barrier (fold now,
// then signal).
type qitem struct {
	b       Batch
	barrier chan<- struct{}
}

// flushReason says why a worker folded its delta — each fold is attributed
// to exactly one cause, so operators can tell a size-driven steady state
// from age-driven trickle or barrier churn.
type flushReason uint8

const (
	flushSize    flushReason = iota // delta reached FlushItems
	flushAge                        // FlushAge ticker fired on a non-empty delta
	flushBarrier                    // Drain barrier forced visibility
	flushClose                      // pipeline shutdown folded the remainder
	numFlushReasons
)

// flushReasonNames are the `reason` label values, indexed by flushReason.
var flushReasonNames = [numFlushReasons]string{"size", "age", "barrier", "close"}

// Pipeline is the async sharded writer plane. Submit routes batches to
// workers (by Source, so per-producer order is preserved); workers
// accumulate into private deltas and fold into the target per flush. Safe
// for concurrent use by any number of producers.
type Pipeline struct {
	opts    Options
	workers []*worker
	rr      atomic.Uint64

	// The pipeline's instruments ARE its stats: telemetry.Counter is a
	// single atomic word (same cost as the atomic.Uint64 these replaced),
	// so Stats() and a Prometheus scrape read the same source of truth.
	submitted telemetry.Counter
	accepted  telemetry.Counter
	dropped   telemetry.Counter
	applied   telemetry.Counter
	folds     telemetry.Counter
	folded    telemetry.Counter
	flushes   [numFlushReasons]telemetry.Counter
	// foldSeconds records fold latency (delta→target merge under the
	// target's lock). Observed once per flush, never per item.
	foldSeconds *telemetry.Histogram

	errMu   sync.Mutex
	lastErr error
	// failed mirrors lastErr != nil for lock-free Submit checks: once a
	// worker loses items (failed fold or apply), the pipeline stops
	// ACCEPTING — acking writes into a plane whose certified state can no
	// longer cover them would be a lie. Reads keep erroring, new writes
	// drop visibly, and the operator restarts.
	failed atomic.Bool

	// lifeMu makes Submit/Drain vs Close safe: Close excludes in-flight
	// submissions before closing the queues.
	lifeMu sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// worker is one writer goroutine's state, touched only by that goroutine.
type worker struct {
	p       *Pipeline
	q       chan qitem
	delta   sketch.Sketch
	pending int
}

// New starts a pipeline. It panics when neither Apply nor Fold is
// configured (a pipeline with nowhere to write is a programming error, like
// registering a nil sketch builder) or when Fold is set without NewDelta.
func New(opts Options) *Pipeline {
	opts.Tuning = opts.Tuning.withDefaults()
	if opts.Apply == nil && opts.Fold == nil {
		panic("ingest: Pipeline needs an Apply or Fold target")
	}
	if opts.Fold != nil && opts.NewDelta == nil {
		panic("ingest: Fold needs NewDelta to build worker deltas")
	}
	p := &Pipeline{
		opts:        opts,
		foldSeconds: telemetry.NewHistogram(telemetry.LatencyBuckets()),
	}
	p.workers = make([]*worker, opts.Workers)
	for i := range p.workers {
		w := &worker{p: p, q: make(chan qitem, opts.Queue)}
		if opts.Fold != nil {
			if w.delta = opts.NewDelta(); w.delta == nil {
				panic("ingest: NewDelta returned nil")
			}
		}
		p.workers[i] = w
		p.wg.Add(1)
		go w.run()
	}
	return p
}

// route picks the worker owning a source. Non-zero sources are sticky (one
// worker, FIFO — attribution order per producer); zero spreads round-robin.
func (p *Pipeline) route(source uint64) *worker {
	n := uint64(len(p.workers))
	if source != 0 {
		return p.workers[source%n]
	}
	return p.workers[p.rr.Add(1)%n]
}

// Submit hands a batch to its worker. Under Block it waits for queue space
// and every item is accepted; under Drop a full queue refuses the whole
// batch. Ack.Generation is 0 — serving edges that track generations stamp
// it themselves. Submitting to a closed or failed pipeline drops: once a
// worker has lost items, an Accepted ack would promise coverage the
// certified state cannot deliver.
func (p *Pipeline) Submit(b Batch) Ack {
	n := len(b.Items)
	p.submitted.Add(uint64(n))
	if n == 0 {
		return Ack{}
	}
	if p.failed.Load() {
		p.dropped.Add(uint64(n))
		return Ack{Dropped: n}
	}
	p.lifeMu.RLock()
	defer p.lifeMu.RUnlock()
	if p.closed {
		p.dropped.Add(uint64(n))
		return Ack{Dropped: n}
	}
	w := p.route(b.Source)
	if p.opts.Policy == Drop {
		select {
		case w.q <- qitem{b: b}:
		default:
			p.dropped.Add(uint64(n))
			return Ack{Dropped: n}
		}
	} else {
		w.q <- qitem{b: b}
	}
	p.accepted.Add(uint64(n))
	return Ack{Accepted: n}
}

// Drain is the read-your-writes barrier: it returns once every batch
// accepted before the call has been applied and folded into the target.
// Query paths call it before reading state the pipeline feeds, so certified
// answers cover everything the caller has already been acked for. An idle
// pipeline (everything accepted already applied and folded) returns
// immediately — query-heavy workloads with trickling ingest don't pay an
// O(workers) barrier round-trip per query, and partial deltas are not
// force-folded. Safe to call concurrently; on a closed pipeline it returns
// the recorded error.
func (p *Pipeline) Drain() error {
	if p.idle() {
		return p.Err()
	}
	p.lifeMu.RLock()
	if p.closed {
		p.lifeMu.RUnlock()
		return p.Err()
	}
	done := make(chan struct{}, len(p.workers))
	for _, w := range p.workers {
		w.q <- qitem{barrier: done}
	}
	p.lifeMu.RUnlock()
	for range p.workers {
		<-done
	}
	return p.Err()
}

// idle reports whether everything accepted has been applied and (for fold
// pipelines) folded. Counter order makes a true answer safe: accepted is
// incremented before Submit returns, applied before folded, so if a batch
// was acked to THIS caller before its Drain, a stale read can only make
// idle return false (the slow barrier path), never skip pending work. A
// failed fold never counts into folded, so an erroring pipeline always
// takes the barrier path and reports its error.
func (p *Pipeline) idle() bool {
	accepted := p.accepted.Value()
	if p.applied.Value() != accepted {
		return false
	}
	return p.opts.Fold == nil || p.folded.Value() == accepted
}

// Close drains and stops the workers. Further Submits drop; further Drains
// return the recorded error. Returns the first worker-side error observed
// over the pipeline's life.
func (p *Pipeline) Close() error {
	p.lifeMu.Lock()
	if p.closed {
		p.lifeMu.Unlock()
		return p.Err()
	}
	p.closed = true
	for _, w := range p.workers {
		close(w.q)
	}
	p.lifeMu.Unlock()
	p.wg.Wait()
	return p.Err()
}

// Err returns the first worker-side error observed, wrapping ErrLostWrites
// (nil when healthy).
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastErr
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Workers:     len(p.workers),
		Policy:      p.opts.Policy.String(),
		Submitted:   p.submitted.Value(),
		Accepted:    p.accepted.Value(),
		Dropped:     p.dropped.Value(),
		Applied:     p.applied.Value(),
		Folds:       p.folds.Value(),
		FoldedItems: p.folded.Value(),
	}
	if err := p.Err(); err != nil {
		s.LastError = err.Error()
	}
	return s
}

// RegisterMetrics exposes the pipeline's instruments on reg under the
// ingest_* namespace. The registered counters are the SAME atomic words
// Stats reads — one source of truth, two expositions. Queue depth and
// worker count are sampled at scrape time (snapshot-on-read); nothing here
// adds work to Submit or the worker loops.
func (p *Pipeline) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("ingest_submitted_items_total", "Items offered to Submit, accepted or not.", nil, &p.submitted)
	reg.RegisterCounter("ingest_accepted_items_total", "Items accepted onto a worker queue.", nil, &p.accepted)
	reg.RegisterCounter("ingest_dropped_items_total", "Items refused by backpressure, pipeline failure, or shutdown.", nil, &p.dropped)
	reg.RegisterCounter("ingest_applied_items_total", "Items fully processed by a worker.", nil, &p.applied)
	reg.RegisterCounter("ingest_folds_total", "Delta-to-target merges.", nil, &p.folds)
	reg.RegisterCounter("ingest_folded_items_total", "Items carried into the target by folds.", nil, &p.folded)
	for i := range p.flushes {
		reg.RegisterCounter("ingest_flushes_total", "Folds by triggering cause.",
			telemetry.Labels{"reason": flushReasonNames[i]}, &p.flushes[i])
	}
	reg.RegisterHistogram("ingest_fold_duration_seconds", "Latency of one delta-to-target merge.", nil, p.foldSeconds)
	reg.GaugeFunc("ingest_queue_depth_batches", "Batches waiting on worker queues.", nil, func() float64 {
		depth := 0
		for _, w := range p.workers {
			depth += len(w.q)
		}
		return float64(depth)
	})
	reg.GaugeFunc("ingest_workers", "Writer goroutines (one private delta each).", nil, func() float64 {
		return float64(len(p.workers))
	})
}

func (p *Pipeline) fail(err error) {
	p.errMu.Lock()
	if p.lastErr == nil {
		p.lastErr = fmt.Errorf("%w: %w", ErrLostWrites, err)
	}
	p.errMu.Unlock()
	p.failed.Store(true)
	if p.opts.Logf != nil {
		p.opts.Logf("ingest: %v", err)
	}
}

// run is the worker loop: drain the queue, fold on size/age/barrier,
// fold once more on shutdown so Close never strands accepted items.
func (w *worker) run() {
	defer w.p.wg.Done()
	tick := time.NewTicker(w.p.opts.FlushAge)
	defer tick.Stop()
	for {
		select {
		case it, ok := <-w.q:
			if !ok {
				w.fold(flushClose)
				return
			}
			if it.barrier != nil {
				w.fold(flushBarrier)
				it.barrier <- struct{}{}
			} else {
				w.apply(it.b)
			}
		case <-tick.C:
			w.fold(flushAge)
		}
	}
}

// apply lands one batch: attribution hook first, then delta accumulation,
// folding afterwards if the delta reached the size threshold.
func (w *worker) apply(b Batch) {
	if w.p.opts.Apply != nil {
		if err := w.p.opts.Apply(b); err != nil {
			w.p.fail(err)
			w.p.applied.Add(uint64(len(b.Items)))
			return
		}
	}
	if w.delta == nil {
		w.p.applied.Add(uint64(len(b.Items)))
		return
	}
	sketch.InsertBatch(w.delta, b.Items)
	w.pending += len(b.Items)
	w.p.applied.Add(uint64(len(b.Items)))
	if w.pending >= w.p.opts.FlushItems {
		w.fold(flushSize)
	}
}

// fold merges the pending delta into the target — the one moment this
// worker touches shared write state — and readies a fresh delta. The
// latency observation brackets only the target merge, and runs once per
// flush, never per item.
func (w *worker) fold(reason flushReason) {
	if w.delta == nil || w.pending == 0 {
		return
	}
	start := time.Now()
	err := w.p.opts.Fold(w.delta)
	w.p.foldSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		w.p.fail(err)
	} else {
		w.p.folds.Inc()
		w.p.flushes[reason].Inc()
		w.p.folded.Add(uint64(w.pending))
	}
	w.pending = 0
	if r, ok := w.delta.(sketch.Resettable); ok {
		r.Reset()
	} else if w.delta = w.p.opts.NewDelta(); w.delta == nil {
		// Losing the delta would silently demote this worker to apply-only;
		// record it as a pipeline failure instead (Submit stops accepting).
		w.p.fail(errors.New("ingest: NewDelta returned nil; delta accumulation lost"))
	}
}
