// Package epoch provides time-windowed measurement on top of any sketch:
// the standard deployment pattern where the data plane measures in fixed
// epochs (say, 10s windows), the control plane reads sealed windows, and
// the structure rotates without missing traffic.
//
// Ring keeps one active (accumulating) sketch and up to Capacity sealed
// ones, newest first. Sealed windows are immutable and published through an
// atomic pointer swap, so queries against them never contend with ingest:
// a reader loads the current sealed set and walks sketches no writer will
// ever touch again. Sliding-window queries merge the last n sealed epochs
// into one view (cached per sealed set, so the merge cost is paid once per
// rotation, not per query) when the sketch supports sketch.Mergeable, and
// fall back to summing per-epoch estimates otherwise.
package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Clock abstracts time for tests.
type Clock func() time.Time

// DefaultCapacity is the sealed-window retention when NewRing is given a
// non-positive capacity: enough look-back for sliding-window queries
// without hoarding memory.
const DefaultCapacity = 8

// Ring wraps a sketch factory with epoch-based rotation and a bounded
// history of sealed windows. It is safe for concurrent use: ingest
// serializes on an internal mutex, sealed-window queries are lock-free.
type Ring struct {
	factory  sketch.Factory
	memBytes int
	interval time.Duration
	capacity int
	clock    Clock

	// mu guards the active window and rotation bookkeeping. Sealed-window
	// queries never take it.
	mu      sync.Mutex
	active  sketch.Sketch
	started time.Time

	// sealed is the immutable published history; every rotation installs a
	// fresh sealedSet, so readers holding the old one keep a consistent view.
	sealed atomic.Pointer[sealedSet]
}

// sealedSet is one immutable generation of sealed windows, newest first.
// The windows themselves are never written after publication; the merged
// cache is the only mutable state and carries its own lock.
type sealedSet struct {
	windows   []sketch.Sketch
	rotations uint64

	// mergedMu guards merged, the lazily built sliding-window views keyed
	// by [from, to] sealed-window index ranges. The cache dies with its
	// sealedSet, which is exactly the required invalidation-on-rotation.
	mergedMu sync.Mutex
	merged   map[[2]int]sketch.Sketch
}

// NewRing builds a ring producing a fresh sketch every interval and
// retaining up to capacity sealed windows (DefaultCapacity when ≤ 0).
func NewRing(f sketch.Factory, memBytes int, interval time.Duration, capacity int, clock Clock) *Ring {
	if clock == nil {
		clock = time.Now
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Ring{
		factory:  f,
		memBytes: memBytes,
		interval: interval,
		capacity: capacity,
		clock:    clock,
	}
	r.active = f.New(memBytes)
	r.started = clock()
	r.sealed.Store(&sealedSet{})
	return r
}

// Capacity returns the maximum number of retained sealed windows.
func (r *Ring) Capacity() int { return r.capacity }

// maybeRotate seals elapsed epochs. Callers hold r.mu. An idle gap yields
// empty sealed windows — the sliding window genuinely slides — but at most
// capacity+1 sketches are materialized per gap, since any older ones would
// immediately fall off the ring.
func (r *Ring) maybeRotate() {
	now := r.clock()
	gap := now.Sub(r.started)
	if gap < r.interval {
		return
	}
	n := int(gap / r.interval)
	elapsed := n
	if n > r.capacity+1 {
		n = r.capacity + 1
	}
	for i := 0; i < n; i++ {
		r.seal()
	}
	r.started = r.started.Add(r.interval * time.Duration(elapsed))
}

// seal publishes the active window as the newest sealed one and installs a
// fresh active. Callers hold r.mu.
func (r *Ring) seal() {
	old := r.sealed.Load()
	keep := len(old.windows)
	if keep >= r.capacity {
		keep = r.capacity - 1
	}
	windows := make([]sketch.Sketch, 0, keep+1)
	windows = append(windows, r.active)
	windows = append(windows, old.windows[:keep]...)
	r.sealed.Store(&sealedSet{windows: windows, rotations: old.rotations + 1})
	r.active = r.factory.New(r.memBytes)
}

// poke opportunistically seals overdue epochs from the read path without
// ever blocking on ingest: if a writer holds the lock, it will rotate
// itself, and the reader proceeds against the current sealed set.
func (r *Ring) poke() {
	if r.mu.TryLock() {
		r.maybeRotate()
		r.mu.Unlock()
	}
}

// Insert adds value to key in the current epoch.
func (r *Ring) Insert(key, value uint64) {
	r.mu.Lock()
	r.maybeRotate()
	r.active.Insert(key, value)
	r.mu.Unlock()
}

// InsertBatch bulk-ingests into the current epoch through the sketch's
// native batch path. The whole batch lands in one epoch: rotation happens
// on the boundary before it, matching how a drained NIC ring or network
// frame is accounted to the window that receives it.
func (r *Ring) InsertBatch(items []stream.Item) {
	r.mu.Lock()
	r.maybeRotate()
	sketch.InsertBatch(r.active, items)
	r.mu.Unlock()
}

// Query reads the most recent sealed epoch — what operators act on.
// Returns 0 before the first rotation. Lock-free with respect to ingest.
func (r *Ring) Query(key uint64) uint64 {
	r.poke()
	ss := r.sealed.Load()
	if len(ss.windows) == 0 {
		return 0
	}
	return ss.windows[0].Query(key)
}

// QueryLive reads the active (accumulating) window. It takes the ingest
// lock: the live window is by definition under mutation.
func (r *Ring) QueryLive(key uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maybeRotate()
	return r.active.Query(key)
}

// QuerySealedWithError reads the newest sealed window's certified interval
// when the underlying sketch supports it; ok is false otherwise or before
// the first rotation. Lock-free with respect to ingest.
func (r *Ring) QuerySealedWithError(key uint64) (est, mpe uint64, ok bool) {
	r.poke()
	ss := r.sealed.Load()
	if len(ss.windows) == 0 {
		return 0, 0, false
	}
	eb, good := ss.windows[0].(sketch.ErrorBounded)
	if !good {
		return 0, 0, false
	}
	est, mpe = eb.QueryWithError(key)
	return est, mpe, true
}

// QueryWindow answers a sliding-window query: the estimated value sum of
// key over the last n sealed epochs (clamped to what the ring retains).
// With a Mergeable sketch the answer comes from one merged view; otherwise
// per-epoch estimates are summed, which preserves upper-bound semantics
// for overestimating sketches but compounds their error.
func (r *Ring) QueryWindow(key uint64, n int) uint64 {
	return r.QueryRange(key, 0, n-1)
}

// QueryRange answers over sealed epochs from..to inclusive, indexed newest
// first (0 = most recent sealed). Indices beyond the retained history are
// clamped; an empty range returns 0. A thin shim over the batch read core
// (rangeBatch), so single-key and batch answers cannot diverge.
func (r *Ring) QueryRange(key uint64, from, to int) uint64 {
	r.poke()
	ss := r.sealed.Load()
	from, to, ok := clampRange(from, to, len(ss.windows))
	if !ok {
		return 0
	}
	keys := [1]uint64{key}
	var est [1]uint64
	r.rangeBatch(ss, from, to, keys[:], est[:], nil)
	return est[0]
}

// QueryWindowWithError answers a sliding-window query with a certified
// interval over the last n sealed epochs: truth ∈ [est−mpe, est]. The
// merged view certifies directly; without Mergeable support, per-epoch
// certified intervals are summed (sound composition, as in netsum). ok is
// false when no sealed window exists or the sketch cannot certify. A thin
// shim over the batch read core (rangeBatch).
func (r *Ring) QueryWindowWithError(key uint64, n int) (est, mpe uint64, ok bool) {
	r.poke()
	ss := r.sealed.Load()
	from, to, rangeOK := clampRange(0, n-1, len(ss.windows))
	if !rangeOK {
		return 0, 0, false
	}
	keys := [1]uint64{key}
	var e, m [1]uint64
	if !r.rangeBatch(ss, from, to, keys[:], e[:], m[:]) {
		return 0, 0, false
	}
	return e[0], m[0], true
}

// clampRange normalizes a newest-first epoch range against the retained
// window count.
func clampRange(from, to, have int) (int, int, bool) {
	if from < 0 {
		from = 0
	}
	if to >= have {
		to = have - 1
	}
	if have == 0 || from > to {
		return 0, 0, false
	}
	return from, to, true
}

// mergedView returns the cached merge of sealed windows from..to, building
// it on first use. A single-window range needs no merge. Returns nil when
// the sketch does not support merging (or a merge fails), in which case
// callers fall back to summing.
func (r *Ring) mergedView(ss *sealedSet, from, to int) sketch.Sketch {
	if from == to {
		return ss.windows[from]
	}
	if _, ok := ss.windows[from].(sketch.Mergeable); !ok {
		// Probe a sealed window before allocating: a non-Mergeable factory
		// would otherwise pay a full sketch allocation per query only to
		// discard it and fall back to summing.
		return nil
	}
	key := [2]int{from, to}
	ss.mergedMu.Lock()
	defer ss.mergedMu.Unlock()
	if m, ok := ss.merged[key]; ok {
		return m // nil for a range whose merge failed: fall back to summing
	}
	if ss.merged == nil {
		ss.merged = make(map[[2]int]sketch.Sketch)
	}
	view := r.factory.New(r.memBytes)
	mg, ok := view.(sketch.Mergeable)
	if !ok {
		ss.merged[key] = nil
		return nil
	}
	for i := from; i <= to; i++ {
		if err := mg.Merge(ss.windows[i]); err != nil {
			// Cache the failure so later queries for this range don't
			// re-allocate and re-merge just to fall back again.
			ss.merged[key] = nil
			return nil
		}
	}
	ss.merged[key] = view
	return view
}

// Generation returns the sealed-set generation: a counter that increments
// exactly when a window seals, and never otherwise. Any answer derived only
// from sealed windows (Query, QueryWindow, QueryRange, TrackedWindow, and
// their WithError forms) is immutable for a fixed generation — the
// invalidation contract result caches key on. Overdue epochs are sealed
// opportunistically before reading, so a reader polling Generation observes
// rotations even on an otherwise idle ring.
func (r *Ring) Generation() uint64 {
	r.poke()
	return r.sealed.Load().rotations
}

// PeekGeneration returns the already-published generation WITHOUT poking:
// no rotation is driven. Write paths stamping Acks and scrapes use it, so
// labelling a write or reading a gauge never seals an epoch; sealing is the
// insert and read paths' job.
func (r *Ring) PeekGeneration() uint64 {
	return r.sealed.Load().rotations
}

// TrackedWindow enumerates the heavy-hitter keys tracked over the last n
// sealed epochs, from the same merged view sliding-window queries use. ok
// is false when nothing is sealed yet, the sketch cannot merge a
// multi-window view, or it does not report tracked keys.
func (r *Ring) TrackedWindow(n int) ([]sketch.KV, bool) {
	r.poke()
	ss := r.sealed.Load()
	from, to, rangeOK := clampRange(0, n-1, len(ss.windows))
	if !rangeOK {
		return nil, false
	}
	view := r.mergedView(ss, from, to)
	if view == nil {
		return nil, false
	}
	hh, ok := view.(sketch.HeavyHitterReporter)
	if !ok {
		return nil, false
	}
	return hh.Tracked(), true
}

// RegisterMetrics exposes the ring's seal state on reg under the ring_*
// namespace. Every sample derives from the already-published sealed set —
// PeekGeneration semantics — so a scrape never pokes the ring or drives a
// rotation. An overdue-but-unsealed epoch is therefore invisible to
// /metrics until a writer or reader seals it; that staleness is the price
// of a scrape that cannot perturb the data plane.
func (r *Ring) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ring_seals_total", "Epoch windows sealed over the ring's life.", nil, func() float64 {
		return float64(r.sealed.Load().rotations)
	})
	reg.GaugeFunc("ring_generation", "Published sealed-set generation (no-poke read).", nil, func() float64 {
		return float64(r.sealed.Load().rotations)
	})
	reg.GaugeFunc("ring_sealed_windows", "Sealed windows currently retained.", nil, func() float64 {
		return float64(len(r.sealed.Load().windows))
	})
	reg.GaugeFunc("ring_capacity", "Sealed-window retention limit.", nil, func() float64 {
		return float64(r.capacity)
	})
	reg.GaugeFunc("ring_epoch_interval_seconds", "Epoch rotation interval.", nil, func() float64 {
		return r.interval.Seconds()
	})
}

// Sealed reports how many sealed windows the ring currently retains.
func (r *Ring) Sealed() int {
	r.poke()
	return len(r.sealed.Load().windows)
}

// Rotations reports how many epochs have been sealed in total.
func (r *Ring) Rotations() uint64 {
	r.poke()
	return r.sealed.Load().rotations
}

// MemoryBytes reports the accounted memory of the active window plus every
// retained sealed window (merged query views are caches, not accounted
// state, exactly as the paper's accounting excludes control-plane copies).
func (r *Ring) MemoryBytes() int {
	r.mu.Lock()
	total := r.active.MemoryBytes()
	r.mu.Unlock()
	for _, w := range r.sealed.Load().windows {
		total += w.MemoryBytes()
	}
	return total
}

// Name identifies the wrapped algorithm.
func (r *Ring) Name() string { return r.factory.Name + "_ring" }
