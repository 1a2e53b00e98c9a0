// Package queryd is the query-serving subsystem: an HTTP/JSON server that
// fronts a measurement backend — a netsum.Collector aggregating many
// agents, or a standalone registry-built sketch — with the unified typed
// query plane (internal/query): batched point estimates carrying certified
// bounds, heavy-hitter top-k, and sliding-window queries, served through
// /v2/query and the per-key v1 endpoints (thin shims over the same
// Execute). Results flow through an epoch-aware cache (Cache) and state is
// made durable through checkpoint files (WriteCheckpoint) built on
// sketch.Snapshotter.
package queryd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/ingest"
	"repro/internal/netsum"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Status describes a backend for /v1/status.
type Status struct {
	Mode       string `json:"mode"` // "collector" or "standalone"
	Algo       string `json:"algo"`
	Epochal    bool   `json:"epochal"`
	Generation uint64 `json:"generation"`
	Agents     int    `json:"agents"`
	Updates    uint64 `json:"updates"`
	Queries    uint64 `json:"queries"`
	// WAL reports write-ahead-log counters when durable ingest is enabled
	// (absent otherwise).
	WAL *wal.Stats `json:"wal,omitempty"`
}

// Backend is the query surface the server fronts: one typed batch executor
// plus the cache-contract metadata. Implementations must be safe for
// concurrent use — the HTTP server issues queries from many goroutines.
type Backend interface {
	// Execute answers one typed batch request under a single state
	// snapshot; every HTTP endpoint (v1 single-key and v2 batch alike) is
	// a shim over it. Refusals (validation, missing capabilities, unknown
	// agents) are returned as errors.
	Execute(query.Request) (query.Answer, error)
	// Generation is the sealed-set generation answers derive from; it
	// advances exactly when a window seals and stays 0 for cumulative
	// backends.
	Generation() uint64
	// Epochal reports whether answers derive only from sealed (immutable)
	// windows — the cache's signal to skip TTLs and key on Generation.
	Epochal() bool
	// Status reports identity and counters.
	Status() Status
}

// Checkpointer is implemented by backends whose state can be checkpointed
// for a warm restart.
type Checkpointer interface {
	Checkpoint(w io.Writer) error
	// CanCheckpoint reports whether Checkpoint can possibly succeed under
	// the backend's configuration, so a server asked to persist state that
	// never will (epoch mode, merging disabled, non-Snapshottable variant)
	// refuses at startup instead of logging failures forever.
	CanCheckpoint() error
}

// Ingester is implemented by backends that accept updates over HTTP
// (standalone mode; collector backends ingest through the agent protocol).
// The Ack reports what actually happened — how many items were applied,
// how many were refused — so HTTP clients are never told 200 while their
// items silently vanish.
type Ingester interface {
	Ingest(b ingest.Batch) ingest.Ack
}

// CollectorBackend fronts a netsum.Collector: global answers composed
// across every agent, with certified bounds. Execute delegates straight to
// the collector's batch core — the same one the wire protocol's exec
// frames use.
type CollectorBackend struct {
	C *netsum.Collector
	// Algo names the collector's sketch variant for Status and checkpoint
	// headers.
	Algo string
}

// Execute answers the typed batch request from the collector's global view.
func (b CollectorBackend) Execute(req query.Request) (query.Answer, error) {
	return b.C.Execute(req)
}

// Generation is the collector-wide seal count.
func (b CollectorBackend) Generation() uint64 { return b.C.Generation() }

// Epochal reports whether the collector measures in sealed windows.
func (b CollectorBackend) Epochal() bool { return b.C.Epochal() }

// Checkpoint snapshots the merged global view.
func (b CollectorBackend) Checkpoint(w io.Writer) error { return b.C.SnapshotGlobal(w) }

// CanCheckpoint reports whether the collector maintains a snapshottable
// merged view.
func (b CollectorBackend) CanCheckpoint() error { return b.C.CanSnapshotGlobal() }

// CutLSN reports the WAL position the collector's most recent snapshot cut
// covered (0 with no WAL).
func (b CollectorBackend) CutLSN() uint64 { return b.C.WALCutLSN() }

// CheckpointCommitted advances the collector's WAL watermark through the
// last cut, now that the checkpoint file holding it is durable.
func (b CollectorBackend) CheckpointCommitted() error { return b.C.WALCheckpointCommitted() }

// RegisterMetrics delegates to the collector, which registers its own
// netsum_* series plus (when durable) its WAL's.
func (b CollectorBackend) RegisterMetrics(reg *telemetry.Registry) { b.C.RegisterMetrics(reg) }

// Status reports collector identity and counters.
func (b CollectorBackend) Status() Status {
	agents, updates, queries := b.C.Stats()
	return Status{
		Mode:       "collector",
		Algo:       b.Algo,
		Epochal:    b.C.Epochal(),
		Generation: b.C.Generation(),
		Agents:     agents,
		Updates:    updates,
		Queries:    queries,
		WAL:        b.C.WALStats(),
	}
}

// SketchBackend serves a standalone registry-built sketch — cumulative, or
// wrapped in an epoch ring when built with an epoch length. Ingest arrives
// over HTTP (Ingest) and is applied synchronously before it is acked, so an
// Ack means "applied" and read-your-writes needs no barrier; queries and
// ingest may run concurrently.
type SketchBackend struct {
	algo string

	// Cumulative mode: sk under mu (writers exclusive, readers shared) —
	// except when selfSynced: sharded sketches lock per shard internally,
	// and routing everything through one outer mutex would serialize the
	// concurrent ingest that Spec.Shards exists to provide.
	mu         sync.RWMutex
	sk         sketch.Sketch
	selfSynced bool

	// Epoch mode: the ring locks internally.
	ring *epoch.Ring

	// wl is the optional write-ahead log (AttachWAL); every Ingest appends
	// to it before applying the batch, so an acked batch is on disk before
	// it is in memory. walMu orders appends against checkpoint cuts: ingest
	// holds it shared around the (append, apply) pair, and the checkpoint
	// cut holds it exclusive around (serialize, capture LastLSN) — so every
	// record at or below the cut LSN is in the snapshot and every record
	// above it is not. cutLSN is the last cut, the point the log can be
	// truncated through once that checkpoint file is durable.
	wl     *wal.Log
	walMu  sync.RWMutex
	cutLSN atomic.Uint64

	// updates/queries double as the backend's Prometheus instruments
	// (RegisterMetrics) — the same atomic words Status reads.
	updates telemetry.Counter
	queries telemetry.Counter
}

// NewSketchBackend builds a standalone backend for the named registry
// variant. epochLen > 0 selects epoch mode: a ring rotating every epochLen
// retaining windows sealed epochs (≤ 0 windows means the default). clock
// overrides time (tests); nil means time.Now.
func NewSketchBackend(algo string, spec sketch.Spec, epochLen time.Duration, windows int, clock epoch.Clock) (*SketchBackend, error) {
	entry, ok := sketch.Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("queryd: unknown algorithm %q", algo)
	}
	b := &SketchBackend{algo: algo}
	if epochLen > 0 {
		b.ring = epoch.NewRing(entry.Factory(spec), spec.MemoryBytes, epochLen, windows, clock)
	} else {
		b.sk = entry.Build(spec)
		b.selfSynced = spec.Shards > 1
	}
	return b, nil
}

// Close is a no-op: synchronous ingest leaves nothing running. It lets
// callers release every backend alike.
func (b *SketchBackend) Close() error { return nil }

// Restore warm-starts a cumulative backend from a snapshot (epoch-mode
// state ages out instead of being checkpointed).
func (b *SketchBackend) Restore(r io.Reader) error {
	if b.ring != nil {
		return errors.New("queryd: warm restart is cumulative-mode only (epoch-ring state ages out instead)")
	}
	sn, ok := b.sk.(sketch.Snapshotter)
	if !ok {
		return fmt.Errorf("queryd: %q does not support Restore", b.algo)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return sn.Restore(r)
}

// Ingest applies a typed batch synchronously; the Ack's generation is
// stamped from the backend, so epoch-mode clients can key caches off their
// own writes.
//
// With a WAL attached, the batch is appended (and, per the fsync policy,
// made durable) before it is applied — the ack promises the write survives
// a crash. A failed append refuses the whole batch (Dropped) rather than
// acking a write that would vanish on restart; the log's sticky failure
// state surfaces in Status.
func (b *SketchBackend) Ingest(batch ingest.Batch) ingest.Ack {
	if b.wl == nil {
		return b.apply(batch)
	}
	b.walMu.RLock()
	defer b.walMu.RUnlock()
	if _, err := b.wl.Append(batch); err != nil {
		return ingest.Ack{Dropped: len(batch.Items), Generation: b.peekGeneration()}
	}
	return b.apply(batch)
}

// apply is Ingest minus durability: the in-memory landing path, shared by
// live traffic and WAL replay.
func (b *SketchBackend) apply(batch ingest.Batch) ingest.Ack {
	switch {
	case b.ring != nil:
		b.ring.InsertBatch(batch.Items)
	case b.selfSynced:
		sketch.InsertBatch(b.sk, batch.Items)
	default:
		b.mu.Lock()
		sketch.InsertBatch(b.sk, batch.Items)
		b.mu.Unlock()
	}
	b.updates.Add(uint64(len(batch.Items)))
	return ingest.Ack{Accepted: len(batch.Items), Generation: b.peekGeneration()}
}

// peekGeneration labels Acks without driving rotation: the insert just
// rotated the ring if an epoch was due, and Generation()'s poke would only
// contend on the ring lock a second time per write.
func (b *SketchBackend) peekGeneration() uint64 {
	if b.ring == nil {
		return 0
	}
	return b.ring.PeekGeneration()
}

// Execute answers the typed batch request. Epoch mode delegates to the
// ring's Execute (one sealed-set snapshot for the whole batch); cumulative
// mode answers every key under a single read-lock acquisition through the
// sketch's native batch path, so a 256-key batch costs one lock round-trip
// (or one per shard, self-synced) instead of 256. Window requests against
// a cumulative backend degenerate to Point with Coverage 0, mirroring the
// collector.
func (b *SketchBackend) Execute(req query.Request) (query.Answer, error) {
	if err := req.Validate(); err != nil {
		return query.Answer{}, err
	}
	b.queries.Inc()
	if b.ring != nil {
		return b.ring.Execute(req)
	}
	if req.Agent != 0 {
		return query.Answer{}, errors.New("queryd: standalone backends have no agents to scope to")
	}
	ans := query.Answer{Source: "sketch"}
	if req.Kind == query.TopK {
		return b.executeTopK(req, ans)
	}
	_, bounded := b.sk.(sketch.ErrorBounded)
	est := make([]uint64, len(req.Keys))
	var mpe []uint64
	if bounded {
		mpe = make([]uint64, len(req.Keys))
	}
	if !b.selfSynced {
		b.mu.RLock()
	}
	sketch.QueryBatch(b.sk, req.Keys, est, mpe)
	if !b.selfSynced {
		b.mu.RUnlock()
	}
	ans.Certified = bounded
	ans.PerKey = query.EstimatesFrom(req.Keys, est, mpe)
	return ans, nil
}

// executeTopK enumerates tracked heavy hitters, heaviest first, with each
// key's interval read under the same lock hold.
func (b *SketchBackend) executeTopK(req query.Request, ans query.Answer) (query.Answer, error) {
	hh, ok := b.sk.(sketch.HeavyHitterReporter)
	if !ok {
		return query.Answer{}, fmt.Errorf("queryd: %q does not report tracked keys", b.algo)
	}
	_, bounded := b.sk.(sketch.ErrorBounded)
	if !b.selfSynced {
		b.mu.RLock()
		defer b.mu.RUnlock()
	}
	kvs := query.TopKOf(hh.Tracked(), req.K)
	keys := make([]uint64, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	est := make([]uint64, len(keys))
	var mpe []uint64
	if bounded {
		mpe = make([]uint64, len(keys))
	}
	sketch.QueryBatch(b.sk, keys, est, mpe)
	ans.Certified = bounded
	ans.PerKey = query.EstimatesFrom(keys, est, mpe)
	return ans, nil
}

// Generation is the ring's seal count (0 in cumulative mode).
func (b *SketchBackend) Generation() uint64 {
	if b.ring == nil {
		return 0
	}
	return b.ring.Generation()
}

// Epochal reports epoch mode.
func (b *SketchBackend) Epochal() bool { return b.ring != nil }

// AttachWAL wires a write-ahead log into the backend: every record past
// ckptLSN (the restored checkpoint's cut) and the log's own watermark is
// replayed through the same in-memory path live traffic takes, and only
// then does the log start intercepting Ingest — no appends happen during
// replay. Cumulative mode only: replaying old records into an epoch ring
// would resurrect expired traffic into the live window.
func (b *SketchBackend) AttachWAL(l *wal.Log, ckptLSN uint64) error {
	if b.ring != nil {
		return errors.New("queryd: WAL-backed ingest is cumulative-mode only (epoch-ring state ages out instead)")
	}
	if b.wl != nil {
		return errors.New("queryd: WAL already attached")
	}
	after := max(ckptLSN, l.Watermark())
	if _, err := l.Replay(after, func(batch ingest.Batch, _ uint64) error {
		b.apply(batch)
		return nil
	}); err != nil {
		return err
	}
	b.cutLSN.Store(after)
	b.wl = l
	return nil
}

// CutLSN reports the WAL position the most recent checkpoint cut covered.
func (b *SketchBackend) CutLSN() uint64 { return b.cutLSN.Load() }

// CheckpointCommitted tells the backend its latest Checkpoint is durable on
// disk: the WAL's records through the cut are now redundant, so the
// watermark advances and fully covered segments are deleted.
func (b *SketchBackend) CheckpointCommitted() error {
	if b.wl == nil {
		return nil
	}
	return b.wl.TruncateThrough(b.cutLSN.Load())
}

// Checkpoint snapshots the cumulative sketch. Readers may run concurrently
// (a snapshot is a read); ingest is excluded for the serialization only —
// the state is captured into memory under the lock and written to w after
// releasing it, so ingest never stalls on the destination's I/O. With a WAL
// attached, the (serialize, capture LastLSN) cut runs under the exclusive
// side of walMu so no (append, apply) pair straddles it.
func (b *SketchBackend) Checkpoint(w io.Writer) error {
	if err := b.CanCheckpoint(); err != nil {
		return err
	}
	sn := b.sk.(sketch.Snapshotter)
	if b.wl != nil {
		b.walMu.Lock()
	}
	buf, err := b.checkpointCut(sn)
	if b.wl != nil {
		if err == nil {
			b.cutLSN.Store(b.wl.LastLSN())
		}
		b.walMu.Unlock()
	}
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// checkpointCut serializes the sketch into a buffer; the caller handles
// WAL cut ordering around it.
func (b *SketchBackend) checkpointCut(sn sketch.Snapshotter) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	if b.selfSynced {
		// Sharded snapshots lock shard-by-shard themselves.
		if err := sn.Snapshot(&buf); err != nil {
			return nil, err
		}
	} else {
		b.mu.RLock()
		err := sn.Snapshot(&buf)
		b.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	return &buf, nil
}

// CanCheckpoint reports whether the backend is a cumulative snapshottable
// sketch.
func (b *SketchBackend) CanCheckpoint() error {
	if b.ring != nil {
		return errors.New("queryd: checkpointing is cumulative-mode only (epoch-ring state ages out instead)")
	}
	if _, ok := b.sk.(sketch.Snapshotter); !ok {
		return fmt.Errorf("queryd: %q does not support Snapshot", b.algo)
	}
	return nil
}

// RegisterMetrics exposes the backend's instruments on reg: its own
// update/query counters plus, when configured, its WAL's and its epoch
// ring's. Call it after the backend is fully wired (in particular after
// AttachWAL) — queryd.New does, at server build time.
func (b *SketchBackend) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("queryd_backend_updates_total", "Items accepted by Ingest.", nil, &b.updates)
	reg.RegisterCounter("queryd_backend_queries_total", "Typed batch requests executed.", nil, &b.queries)
	if b.wl != nil {
		b.wl.RegisterMetrics(reg)
	}
	if b.ring != nil {
		b.ring.RegisterMetrics(reg)
	}
}

// Status reports identity and counters.
func (b *SketchBackend) Status() Status {
	st := Status{
		Mode:       "standalone",
		Algo:       b.algo,
		Epochal:    b.Epochal(),
		Generation: b.Generation(),
		Updates:    b.updates.Value(),
		Queries:    b.queries.Value(),
	}
	if b.wl != nil {
		ws := b.wl.Stats()
		st.WAL = &ws
	}
	return st
}
