package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// RouterConfig names a router's cluster and transport.
type RouterConfig struct {
	// Membership's peer list is the ring; Self is ignored (a router is not
	// a member).
	Membership Membership
	// Algo labels Status; routers serve no sketch of their own.
	Algo string
	// Client overrides the fan-out HTTP client (tests); nil means a default
	// with Timeout (or 10s).
	Client  *http.Client
	Timeout time.Duration
	// NoFallback disables rerouting a down owner's sub-batch to the next
	// replicas on the ring. With fallback on, a transient owner failure
	// still answers every key — uncertified, from merged views that may lag
	// — instead of leaving rows at zero.
	NoFallback bool
	Logf       func(format string, args ...any)
}

// Router is the cluster's scatter-gather front: a queryd.Backend (and so a
// query.Executor) that owns no sketch. Execute partitions the batch by ring
// owner, fans sub-batches out over POST /v2/query concurrently, and
// stitches the sub-answers into one Answer whose Coverage, Certified, and
// KeyCoverage fields account for every failure honestly. Ingest partitions
// items the same way and routes them to their owners' /v2/ingest,
// preserving block/drop ack semantics end to end (a refused or unreachable
// owner's items are reported Dropped, never silently retried elsewhere —
// writing a key to a non-owner would strand it outside the owner's
// authoritative state).
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	peers  []string
	client *http.Client
	logf   func(format string, args ...any)

	queries  telemetry.Counter
	updates  telemetry.Counter
	fanout   *telemetry.Histogram
	reqs     []telemetry.Counter // per replica, index-aligned with peers
	errs     []telemetry.Counter
	fallback []telemetry.Counter
}

// NewRouter builds a router over the membership's peers.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg.Membership.Self = -1
	ring, err := NewRing(cfg.Membership)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	n := len(cfg.Membership.Peers)
	return &Router{
		cfg:      cfg,
		ring:     ring,
		peers:    cfg.Membership.Peers,
		client:   client,
		logf:     cfg.Logf,
		fanout:   telemetry.NewHistogram(telemetry.LatencyBuckets()),
		reqs:     make([]telemetry.Counter, n),
		errs:     make([]telemetry.Counter, n),
		fallback: make([]telemetry.Counter, n),
	}, nil
}

// subVerdict classifies one replica's response the way the error envelope's
// status codes distinguish them: ok, transient (retry another replica), or
// hard (no retry will help).
type subVerdict uint8

const (
	subOK subVerdict = iota
	subTransient
	subHard
)

// Execute scatter-gathers one typed batch. It never returns a transport
// error: replica failures degrade the Answer's KeyCoverage and certification
// instead, so callers always get the best available estimates plus an
// honest account of what backs them.
func (rt *Router) Execute(req query.Request) (query.Answer, error) {
	if err := req.Validate(); err != nil {
		return query.Answer{}, err
	}
	rt.queries.Inc()
	start := time.Now()
	defer func() { rt.fanout.ObserveDuration(time.Since(start)) }()
	if req.Kind == query.TopK {
		return rt.executeTopK(req), nil
	}

	idx, counts := rt.ring.Partition(req.Keys)
	st := query.NewStitcher(req)
	var mu sync.Mutex // serializes stitching across fan-in goroutines
	var wg sync.WaitGroup
	for p := range rt.peers {
		part := idx[counts[p]:counts[p+1]]
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(owner int, part []int) {
			defer wg.Done()
			sub := req
			sub.Keys = make([]uint64, len(part))
			for j, i := range part {
				sub.Keys[j] = req.Keys[i]
			}
			ans, verdict := rt.query(owner, sub)
			if verdict == subOK {
				mu.Lock()
				st.Add(part, ans, true)
				mu.Unlock()
				return
			}
			if verdict == subHard || rt.cfg.NoFallback {
				return
			}
			// The owner is transiently down: walk the ring for any replica
			// that can answer from its merged view. Such answers lag
			// replication, so they are folded in as non-authoritative —
			// estimates present, certification and KeyCoverage withheld.
			for off := 1; off < len(rt.peers); off++ {
				q := (owner + off) % len(rt.peers)
				if ans, v := rt.query(q, sub); v == subOK {
					rt.fallback[owner].Inc()
					mu.Lock()
					st.Add(part, ans, false)
					mu.Unlock()
					return
				}
			}
		}(p, part)
	}
	wg.Wait()
	ans := st.Finish()
	ans.Source = "cluster"
	return ans, nil
}

// executeTopK asks every replica (heavy hitters have no single owner) and
// merges the listings.
func (rt *Router) executeTopK(req query.Request) query.Answer {
	answers := make([]query.Answer, len(rt.peers))
	ok := make([]bool, len(rt.peers))
	var wg sync.WaitGroup
	for p := range rt.peers {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ans, verdict := rt.query(p, req)
			if verdict == subOK {
				answers[p], ok[p] = ans, true
			}
		}(p)
	}
	wg.Wait()
	var live []query.Answer
	for p, got := range ok {
		if got {
			live = append(live, answers[p])
		}
	}
	ans := query.MergeTopK(live, req.K, len(rt.peers))
	ans.Source = "cluster"
	return ans
}

// query round-trips one sub-batch to replica p.
func (rt *Router) query(p int, sub query.Request) (query.Answer, subVerdict) {
	rt.reqs[p].Inc()
	body, err := json.Marshal(sub)
	if err != nil {
		rt.errs[p].Inc()
		return query.Answer{}, subHard
	}
	resp, err := rt.client.Post(rt.peers[p]+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		// Connection refused, timeout, reset: the replica may be down while
		// its peers hold its replicated state — transient.
		rt.errs[p].Inc()
		return query.Answer{}, subTransient
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		rt.errs[p].Inc()
		verdict := subHard
		if resp.StatusCode == http.StatusServiceUnavailable {
			verdict = subTransient
		}
		if rt.logf != nil {
			var eb queryd.ErrorBody
			_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb)
			rt.logf("cluster: replica %s answered %s (%s: %s)",
				rt.peers[p], resp.Status, eb.Error.Code, eb.Error.Message)
		}
		return query.Answer{}, verdict
	}
	var er queryd.ExecResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		rt.errs[p].Inc()
		return query.Answer{}, subHard
	}
	if sub.Kind != query.TopK && len(er.PerKey) != len(sub.Keys) {
		rt.errs[p].Inc()
		return query.Answer{}, subHard
	}
	return er.Answer, subOK
}

// Ingest partitions the batch by owner and routes each part to its owner's
// /v2/ingest. The summed Ack preserves each replica's verdict: items a
// replica refused (a failed WAL append) show up in Dropped, and an
// unreachable or refusing owner drops its whole part — the router never
// acks items it could not hand to their owner.
func (rt *Router) Ingest(b ingest.Batch) ingest.Ack {
	parts := make([][]stream.Item, len(rt.peers))
	for _, it := range b.Items {
		p := rt.ring.Owner(it.Key)
		parts[p] = append(parts[p], it)
	}
	acks := make([]ingest.Ack, len(rt.peers))
	var wg sync.WaitGroup
	for p, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(p int, part []stream.Item) {
			defer wg.Done()
			acks[p] = rt.ingestOne(p, ingest.Batch{Items: part, Source: b.Source, Epoch: b.Epoch})
		}(p, part)
	}
	wg.Wait()
	var total ingest.Ack
	for _, a := range acks {
		total.Accepted += a.Accepted
		total.Dropped += a.Dropped
	}
	rt.updates.Add(uint64(total.Accepted))
	return total
}

// ingestOne posts one owner's part, mapping transport failures to a
// full-part drop.
func (rt *Router) ingestOne(p int, b ingest.Batch) ingest.Ack {
	rt.reqs[p].Inc()
	refused := ingest.Ack{Dropped: len(b.Items)}
	type wireItem struct {
		Key   uint64 `json:"key"`
		Value uint64 `json:"value"`
	}
	items := make([]wireItem, len(b.Items))
	for i, it := range b.Items {
		items[i] = wireItem{Key: it.Key, Value: it.Value}
	}
	body, err := json.Marshal(map[string]any{"items": items, "source": b.Source, "epoch": b.Epoch})
	if err != nil {
		rt.errs[p].Inc()
		return refused
	}
	resp, err := rt.client.Post(rt.peers[p]+"/v2/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		rt.errs[p].Inc()
		return refused
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		rt.errs[p].Inc()
		return refused
	}
	var ack ingest.Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		rt.errs[p].Inc()
		return refused
	}
	return ack
}

// Generation: routers front cumulative replicas; there is no sealed set.
func (rt *Router) Generation() uint64 { return 0 }

// Epochal: never — router answers are live merged views.
func (rt *Router) Epochal() bool { return false }

// Status reports the router's identity; Agents is the replica count.
func (rt *Router) Status() queryd.Status {
	return queryd.Status{
		Mode:    "router",
		Algo:    rt.cfg.Algo,
		Agents:  rt.ring.Replicas(),
		Updates: rt.updates.Value(),
		Queries: rt.queries.Value(),
	}
}

// RegisterMetrics exposes the cluster_* family on the router's registry:
// per-replica request/error/fallback counters (one CollectFunc each — the
// label set is the peer list), the fan-out latency histogram, and the ring
// gauges.
func (rt *Router) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("cluster_router_queries_total",
		"Batches scatter-gathered through the router.", nil, &rt.queries)
	reg.RegisterCounter("cluster_router_ingested_total",
		"Items acked through routed ingest.", nil, &rt.updates)
	reg.RegisterHistogram("cluster_fanout_duration_seconds",
		"Whole scatter-gather latency per routed batch.", nil, rt.fanout)
	reg.GaugeFunc("cluster_ring_replicas", "Replicas on the consistent-hash ring.",
		nil, func() float64 { return float64(rt.ring.Replicas()) })
	reg.GaugeFunc("cluster_ring_vnodes", "Virtual nodes per replica.",
		nil, func() float64 { return float64(rt.ring.VNodes()) })
	perReplica := func(counters []telemetry.Counter) func(telemetry.Emit) {
		return func(emit telemetry.Emit) {
			for p, peer := range rt.peers {
				emit(telemetry.Labels{"replica": peer}, float64(counters[p].Value()))
			}
		}
	}
	reg.CollectFunc("cluster_replica_requests_total",
		"Sub-requests fanned out, by replica.", telemetry.TypeCounter, perReplica(rt.reqs))
	reg.CollectFunc("cluster_replica_errors_total",
		"Failed sub-requests, by replica.", telemetry.TypeCounter, perReplica(rt.errs))
	reg.CollectFunc("cluster_replica_fallbacks_total",
		"Sub-batches rerouted to a non-owner because the owner was down, by owner.",
		telemetry.TypeCounter, perReplica(rt.fallback))
}
