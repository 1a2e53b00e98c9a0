package netsum

import (
	"errors"
	"fmt"

	"repro/internal/query"
	"repro/internal/sketch"
)

// Execute answers a whole typed batch request against the collector's
// global view — the collector's surface of the unified query plane, and
// what the wire protocol's msgExecQuery frames and queryd's CollectorBackend
// call. Batching is where the collector's amortizations live: every agent's
// sketch is locked exactly once for the whole batch (so all keys see the
// same agent state — no torn reads across keys), per-agent epoch rings are
// read under one sealed-set snapshot, and the merged global view is
// intersected for all keys under one lock hold.
//
// Kinds:
//   - Point answers each key over the collector's whole visible history
//     (all time, or each agent's retained sliding window in epoch mode).
//   - Window answers over the last req.Window sealed epochs (cumulative
//     collectors degenerate to the all-time answer with Coverage 0);
//     req.Agent scopes it to one agent's ring.
//   - TopK enumerates the merged global view's heavy hitters with each
//     key's interval from the same batch core point queries use.
//
// Every answer is certified: the collector only builds ErrorBounded
// variants, so truth ∈ [Lower, Upper] per key.
func (c *Collector) Execute(req query.Request) (query.Answer, error) {
	if err := req.Validate(); err != nil {
		return query.Answer{}, err
	}
	// Read-your-writes needs no barrier: a connection handler applies each
	// batch to its agent's sketch and the merged view before it reads the
	// next frame, so everything acked on the wire is already visible here.
	c.queries.Add(1)
	ans := query.Answer{Generation: c.Generation(), Source: "collector", Certified: true}

	switch req.Kind {
	case query.TopK:
		kvs, err := c.TrackedGlobal()
		if err != nil {
			return query.Answer{}, err
		}
		kvs = query.TopKOf(kvs, req.K)
		keys := make([]uint64, len(kvs))
		for i, kv := range kvs {
			keys[i] = kv.Key
		}
		est := make([]uint64, len(keys))
		mpe := make([]uint64, len(keys))
		c.queryGlobalBatch(keys, 0, est, mpe)
		ans.PerKey = query.EstimatesFrom(keys, est, mpe)
		ans.Source = "collector+merged"
		return ans, nil

	case query.Window:
		if req.Agent != 0 {
			return c.executeAgentWindow(req, ans)
		}
		est := make([]uint64, len(req.Keys))
		mpe := make([]uint64, len(req.Keys))
		if c.cfg.Epoch <= 0 {
			// Cumulative measurement has no epochs: the answer degenerates
			// to the all-time global interval, flagged by Coverage 0.
			c.queryGlobalBatch(req.Keys, 0, est, mpe)
		} else {
			ans.Coverage = c.estimateSumBatch(req.Keys, req.Window, est, mpe)
		}
		ans.PerKey = query.EstimatesFrom(req.Keys, est, mpe)
		return ans, nil

	default: // query.Point
		est := make([]uint64, len(req.Keys))
		mpe := make([]uint64, len(req.Keys))
		ans.Coverage = c.queryGlobalBatch(req.Keys, 0, est, mpe)
		ans.PerKey = query.EstimatesFrom(req.Keys, est, mpe)
		if c.MergeBased() {
			ans.Source = "collector+merged"
		}
		return ans, nil
	}
}

// executeAgentWindow answers a window batch scoped to one agent's epoch
// ring, under one sealed-set snapshot.
func (c *Collector) executeAgentWindow(req query.Request, ans query.Answer) (query.Answer, error) {
	if c.cfg.Epoch <= 0 {
		return query.Answer{}, errors.New("netsum: agent window queries need epoch mode (CollectorConfig.Epoch > 0)")
	}
	c.mu.Lock()
	st, ok := c.agents[req.Agent]
	c.mu.Unlock()
	if !ok {
		return query.Answer{}, fmt.Errorf("%w %d", ErrUnknownAgent, req.Agent)
	}
	est := make([]uint64, len(req.Keys))
	mpe := make([]uint64, len(req.Keys))
	certified, covered := st.ring.QueryWindowBatch(req.Keys, req.Window, est, mpe)
	if !certified {
		// Nothing sealed yet: zeros over an empty span are vacuously
		// certified (the true sum over zero epochs is zero).
		for i := range mpe {
			mpe[i] = 0
		}
	}
	ans.Coverage = covered
	ans.PerKey = query.EstimatesFrom(req.Keys, est, mpe)
	ans.Source = "collector/agent"
	return ans, nil
}

// estimateSumBatch is the composition path of the batch core: for every
// key, the sum of all agents' certified estimates with MPEs summed —
// certified, since a key's global sum equals the sum of its per-agent
// sums. Each agent contributes under exactly one lock acquisition (or one
// sealed-set snapshot in epoch mode, spanning n epochs; n ≤ 0 means each
// agent's full retention), so a batch costs one lock round-trip per agent
// instead of one per key per agent. covered reports the widest epoch span
// any agent answered (0 in cumulative mode). est and mpe are overwritten.
func (c *Collector) estimateSumBatch(keys []uint64, n int, est, mpe []uint64) (covered int) {
	for i := range keys {
		est[i] = 0
		mpe[i] = 0
	}
	tmpE := make([]uint64, len(keys))
	tmpM := make([]uint64, len(keys))
	add := func() {
		for i := range keys {
			est[i] += tmpE[i]
			mpe[i] += tmpM[i]
		}
	}
	for _, st := range c.snapshotAgents() {
		if st.ring != nil {
			span := n
			if span <= 0 {
				span = st.ring.Capacity()
			}
			certified, cov := st.ring.QueryWindowBatch(keys, span, tmpE, tmpM)
			if !certified {
				continue // nothing sealed yet: zero contribution
			}
			add()
			if cov > covered {
				covered = cov
			}
			continue
		}
		st.mu.Lock()
		sketch.QueryBatch(st.sk, keys, tmpE, tmpM)
		st.mu.Unlock()
		add()
	}
	return covered
}

// queryGlobalBatch is the shared global-query body of the batch core:
// estimate-sum over every agent, intersected per key with the merged view
// (under one globalMu hold for the whole batch) when one is maintained.
// The warm-restart baseline certifies pre-restart truth, so its interval
// is added to both operands — it is kept out of the live merged view,
// which only ever takes inserts.
func (c *Collector) queryGlobalBatch(keys []uint64, n int, est, mpe []uint64) (covered int) {
	covered = c.estimateSumBatch(keys, n, est, mpe)
	var be, bm []uint64
	if b := c.baselineSketch(); b != nil {
		be = make([]uint64, len(keys))
		bm = make([]uint64, len(keys))
		sketch.QueryBatch(b, keys, be, bm)
		for i := range keys {
			est[i] += be[i]
			mpe[i] += bm[i]
		}
	}
	if c.global == nil {
		return covered
	}
	ge := make([]uint64, len(keys))
	gm := make([]uint64, len(keys))
	c.globalMu.Lock()
	sketch.QueryBatch(c.global, keys, ge, gm)
	c.globalMu.Unlock()
	for i := range be {
		ge[i] += be[i]
		gm[i] += bm[i]
	}
	for i := range keys {
		est[i], mpe[i] = intersectIntervals(est[i], mpe[i], ge[i], gm[i])
	}
	return covered
}
