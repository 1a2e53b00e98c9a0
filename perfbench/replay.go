package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/queryd"
	"repro/internal/rcache"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all" // "Ours" by registry name, as rsserve builds it
)

// replayQueries caps the query batches the layer replay sends.
const replayQueries = 2048

// serveSpec is rsserve's default sketch: Ours, Λ = 25, 1 MiB, seed 1.
var serveSpec = sketch.Spec{Lambda: 25, MemoryBytes: 1 << 20, Seed: 1}

// layerTimes is what the in-process replay measured, per layer.
type layerTimes struct {
	handlerIngest, handlerQuery time.Duration // queryd handler spans
	ingestReqs, queryReqs       int
	ingestItems, queryKeys      int
	mainAllocs                  float64 // mallocs per request over the timed phase's request mix

	backendIngest, backendExec time.Duration // backend spans, children of the handler
	execCalls, execKeys        int

	sketchInsert, sketchQuery time.Duration
	sketchItems, sketchKeys   int
	insertionFailures         uint64

	cache     time.Duration // LookupMany + StoreMany
	cacheKeys int

	spans []span
}

// timedBackend decorates the backend with a span around every Execute and
// Ingest, parented to the handler span in flight (the replay is serial).
type timedBackend struct {
	b      *queryd.SketchBackend
	tr     *tracer
	parent uint64
	lt     *layerTimes
}

func (t *timedBackend) Execute(req query.Request) (query.Answer, error) {
	start := time.Now()
	ans, err := t.b.Execute(req)
	end := time.Now()
	t.lt.backendExec += end.Sub(start)
	t.lt.execCalls++
	t.lt.execKeys += len(req.Keys)
	t.lt.spans = append(t.lt.spans, t.tr.span(t.tr.newID(), t.parent, "backend", "Execute", start, end))
	return ans, err
}

func (t *timedBackend) Ingest(batch ingest.Batch) ingest.Ack {
	start := time.Now()
	ack := t.b.Ingest(batch)
	end := time.Now()
	t.lt.backendIngest += end.Sub(start)
	t.lt.spans = append(t.lt.spans, t.tr.span(t.tr.newID(), t.parent, "backend", "Ingest", start, end))
	return ack
}

func (t *timedBackend) Generation() uint64    { return t.b.Generation() }
func (t *timedBackend) Epochal() bool         { return t.b.Epochal() }
func (t *timedBackend) Status() queryd.Status { return t.b.Status() }

// replayPlan is the request sequence the replay sends: one pass of ingest
// batches, then the workload's query batches, each optionally followed by
// the next ingest batch of the loop (mixed).
type replayPlan struct {
	queries    []queryBody
	interleave bool
}

func (b *bench) plan() replayPlan {
	switch b.workload {
	case "query-zipf":
		return replayPlan{queries: b.in.zipf[:min(replayQueries, len(b.in.zipf))]}
	case "mixed":
		return replayPlan{queries: b.in.uniform[:min(replayQueries, len(b.in.uniform))], interleave: true}
	default:
		return replayPlan{queries: b.in.sweep[:min(replayQueries, len(b.in.sweep))]}
	}
}

// replay drives the same generated inputs through the layers in process,
// with no network: the queryd handler over a synchronous backend, the
// built sketch, and the result cache.
func (b *bench) replay() (*layerTimes, error) {
	lt := &layerTimes{}
	if err := b.replayHandler(lt); err != nil {
		return nil, err
	}
	if err := b.replaySketch(lt); err != nil {
		return nil, err
	}
	b.replayCache(lt)
	return lt, nil
}

type replayReq struct {
	ep    string
	body  []byte
	units int
}

func (b *bench) replayHandler(lt *layerTimes) error {
	sb, err := queryd.NewSketchBackend("Ours", serveSpec, 0, 0, nil)
	if err != nil {
		return fmt.Errorf("replay backend: %w", err)
	}
	defer sb.Close()
	tb := &timedBackend{b: sb, tr: &b.tr, lt: lt}
	srv, err := queryd.New(tb, queryd.Config{Algo: "Ours", Spec: serveSpec})
	if err != nil {
		return fmt.Errorf("replay server: %w", err)
	}
	defer srv.Close()
	h := srv.Handler()

	// Two stretches: one pass of ingest batches, then the workload's query
	// batches (each followed by the next ingest batch of the loop, in
	// mixed). The stretch matching the workload's timed phase is the one
	// whose mallocs are counted.
	in, p := b.in, b.plan()
	var pass, after []replayReq
	for j, body := range in.ingest {
		pass = append(pass, replayReq{epIngest, body, in.batchItems(j)})
	}
	for j, q := range p.queries {
		after = append(after, replayReq{epQuery, q.body, len(q.keys)})
		if p.interleave {
			k := j % len(in.ingest)
			after = append(after, replayReq{epIngest, in.ingest[k], in.batchItems(k)})
		}
	}
	passMallocs, err := b.serveReplay(h, tb, lt, pass)
	if err != nil {
		return err
	}
	afterMallocs, err := b.serveReplay(h, tb, lt, after)
	if err != nil {
		return err
	}
	if b.mainEp() == epIngest {
		lt.mainAllocs = ratio(float64(passMallocs), float64(len(pass)))
	} else {
		lt.mainAllocs = ratio(float64(afterMallocs), float64(len(after)))
	}
	return nil
}

// serveReplay sends seq through the handler and returns the mallocs the
// serving took. Requests are built a chunk at a time outside the measured
// stretch, so the count is the handler's alone.
func (b *bench) serveReplay(h http.Handler, tb *timedBackend, lt *layerTimes, seq []replayReq) (uint64, error) {
	const chunk = 256
	var mallocs uint64
	for lo := 0; lo < len(seq); lo += chunk {
		part := seq[lo:min(lo+chunk, len(seq))]
		reqs := make([]*http.Request, len(part))
		recs := make([]*httptest.ResponseRecorder, len(part))
		for i, r := range part {
			reqs[i] = httptest.NewRequest(http.MethodPost, r.ep, bytes.NewReader(r.body))
			recs[i] = httptest.NewRecorder()
			recs[i].Body.Grow(8 << 10)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i, r := range part {
			id := b.tr.newID()
			tb.parent = id
			start := time.Now()
			h.ServeHTTP(recs[i], reqs[i])
			end := time.Now()
			lt.spans = append(lt.spans, b.tr.span(id, 0, "queryd", r.ep, start, end))
			if recs[i].Code != http.StatusOK {
				return 0, fmt.Errorf("replay %s: %d %s", r.ep, recs[i].Code, recs[i].Body.String())
			}
			if r.ep == epIngest {
				lt.handlerIngest += end.Sub(start)
				lt.ingestReqs++
				lt.ingestItems += r.units
			} else {
				lt.handlerQuery += end.Sub(start)
				lt.queryReqs++
				lt.queryKeys += r.units
			}
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	return mallocs, nil
}

// replaySketch feeds one pass of the stream and the workload's query keys
// straight into the sketch rsserve builds.
func (b *bench) replaySketch(lt *layerTimes) error {
	sk, err := sketch.Build("Ours", serveSpec)
	if err != nil {
		return fmt.Errorf("replay sketch: %w", err)
	}
	items := b.in.items
	for lo := 0; lo < len(items); lo += ingestBatch {
		batch := items[lo:min(lo+ingestBatch, len(items))]
		lt.sketchInsert += timed(&b.tr, &lt.spans, "sketch", "InsertBatch", func() { sketch.InsertBatch(sk, batch) })
		lt.sketchItems += len(batch)
	}
	est, mpe := make([]uint64, queryBatch), make([]uint64, queryBatch)
	for _, q := range b.plan().queries {
		n := len(q.keys)
		lt.sketchQuery += timed(&b.tr, &lt.spans, "sketch", "QueryBatch", func() { sketch.QueryBatch(sk, q.keys, est[:n], mpe[:n]) })
		lt.sketchKeys += n
	}
	if f, ok := sk.(interface{ InsertionFailures() (uint64, uint64) }); ok {
		lt.insertionFailures, _ = f.InsertionFailures()
	}
	return nil
}

// replayCache probes and fills a default result cache with the workload's
// per-key cache keys, as the query handler does.
func (b *bench) replayCache(lt *layerTimes) {
	c := rcache.New(rcache.Config{})
	for _, q := range b.plan().queries {
		keys := make([]string, len(q.keys))
		for i, k := range q.keys {
			keys[i] = "x/1/0/0/" + strconv.FormatUint(k, 10)
		}
		var vals []any
		lt.cache += timed(&b.tr, &lt.spans, "rcache", "LookupMany", func() { vals, _ = c.LookupMany(keys, 0) })
		var miss []string
		var missVals []any
		for i, v := range vals {
			if v == nil {
				miss = append(miss, keys[i])
				missVals = append(missVals, q.keys[i])
			}
		}
		if len(miss) > 0 {
			lt.cache += timed(&b.tr, &lt.spans, "rcache", "StoreMany", func() { c.StoreMany(miss, 0, false, missVals) })
		}
		lt.cacheKeys += len(keys)
	}
}

// timed runs f inside a span of the named layer call and returns its
// duration.
func timed(tr *tracer, spans *[]span, layer, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	*spans = append(*spans, tr.span(tr.newID(), 0, layer, name, start, end))
	return end.Sub(start)
}
