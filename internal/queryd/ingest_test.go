package queryd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// testClock is an atomically advanced clock for ring backends, so epochs
// seal when the test says so instead of whenever the race detector makes
// wall time crawl.
type testClock struct{ nanos atomic.Int64 }

func (c *testClock) clock() time.Time        { return time.Unix(0, c.nanos.Load()) }
func (c *testClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// backends builds the three write-surface shapes standalone ingest serves
// — flat, sharded, and ring-backed. The returned seal func makes every ring
// epoch boundary pass (no-op for cumulative backends).
func backends(t *testing.T) map[string]struct {
	b    *SketchBackend
	seal func()
} {
	t.Helper()
	clk := &testClock{}
	interval := time.Minute
	out := make(map[string]struct {
		b    *SketchBackend
		seal func()
	})
	for name, cfg := range map[string]struct {
		spec  sketch.Spec
		epoch time.Duration
	}{
		"flat":    {spec: sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 2}},
		"sharded": {spec: sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 2, Shards: 8}},
		"ring":    {spec: sketch.Spec{MemoryBytes: 1 << 19, Lambda: 25, Seed: 2}, epoch: interval},
	} {
		b, err := NewSketchBackend("Ours", cfg.spec, cfg.epoch, 64, clk.clock)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seal := func() {}
		if cfg.epoch > 0 {
			seal = func() { clk.advance(interval) }
		}
		out[name] = struct {
			b    *SketchBackend
			seal func()
		}{b, seal}
	}
	return out
}

// TestIngestQueryInterleaving is the ingest/query race matrix: concurrent
// synchronous ingest vs. typed query.Request execution on flat, sharded,
// and ring-backed sketches. Mid-flight answers must stay well-formed; once
// the writers finish, the certified bounds must contain the exact counts.
// Run under -race in CI.
func TestIngestQueryInterleaving(t *testing.T) {
	s := stream.Zipf(30_000, 2_000, 1.1, 11)
	for name, pb := range backends(t) {
		b, seal := pb.b, pb.seal
		t.Run(name, func(t *testing.T) {
			const writers = 4
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for lo := w * 512; lo < s.Len(); lo += writers * 512 {
						hi := min(lo+512, s.Len())
						b.Ingest(ingest.Batch{Items: s.Items[lo:hi], Source: uint64(w + 1)})
					}
				}(w)
			}
			req := query.Request{Kind: query.Point, Keys: []uint64{s.Items[0].Key, s.Items[1].Key, 424242}}
			if b.Epochal() {
				req = query.Request{Kind: query.Window, Keys: req.Keys, Window: 16}
			}
			for i := 0; i < 40; i++ {
				ans, err := b.Execute(req)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ans.PerKey {
					if e.Lower > e.Est || e.Est > e.Upper {
						t.Fatalf("malformed interval mid-ingest: %+v", e)
					}
				}
			}
			wg.Wait()

			if b.Epochal() {
				// Cross the epoch boundary so the traffic seals; Execute's
				// read path seals the overdue window before answering.
				seal()
			}
			truth := s.Truth()
			keys := make([]uint64, 0, len(truth))
			for k := range truth {
				keys = append(keys, k)
				if len(keys) == query.MaxBatchKeys {
					break
				}
			}
			final := query.Request{Kind: query.Point, Keys: keys}
			if b.Epochal() {
				final = query.Request{Kind: query.Window, Keys: keys, Window: 64}
			}
			ans, err := b.Execute(final)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Certified {
				t.Fatal("final answer not certified")
			}
			for _, e := range ans.PerKey {
				if exact := truth[e.Key]; exact < e.Lower || exact > e.Upper {
					t.Fatalf("key %d: certified interval [%d, %d] misses exact %d",
						e.Key, e.Lower, e.Upper, exact)
				}
			}
		})
	}
}

// TestInsertReportsApplied pins the /v1/insert fix: the response body says
// how many items were accepted and dropped, so a refused batch is reported
// instead of silently 200-ed away.
func TestInsertReportsApplied(t *testing.T) {
	b, err := NewSketchBackend("Ours", sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/insert", "application/json",
		strings.NewReader(`{"items":[{"key":7,"value":3},{"key":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Ingested   int    `json:"ingested"`
		Dropped    int    `json:"dropped"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.Ingested != 2 || body.Dropped != 0 {
		t.Fatalf("insert answered %d %+v, want 200 with 2 ingested", resp.StatusCode, body)
	}
}

// TestIngestV2Endpoint drives POST /v2/ingest end to end: typed batches
// (source + epoch tag) in, Ack JSON out, state queryable after.
func TestIngestV2Endpoint(t *testing.T) {
	b, err := NewSketchBackend("Ours", sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/ingest", "application/json",
		strings.NewReader(`{"items":[{"key":42,"value":10},{"key":42,"value":5}],"source":3,"epoch":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack ingest.Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Accepted != 2 || ack.Dropped != 0 {
		t.Fatalf("/v2/ingest answered %d %+v, want 200 with 2 accepted", resp.StatusCode, ack)
	}

	q, err := http.Get(ts.URL + "/v1/point?key=42")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Lower > 15 || qr.Upper < 15 {
		t.Fatalf("point after /v2/ingest: interval [%d, %d] misses 15", qr.Lower, qr.Upper)
	}

	// Method and capability errors keep the JSON envelope.
	g, err := http.Get(ts.URL + "/v2/ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/ingest = %d, want 405", g.StatusCode)
	}
	var envelope ErrorBody
	if err := json.NewDecoder(g.Body).Decode(&envelope); err != nil || envelope.Error.Code == "" {
		t.Fatalf("GET /v2/ingest error envelope: %+v, %v", envelope, err)
	}
}

// TestIngestStatsInStatus checks /v1/status on a standalone backend: the
// update counter covers the applied batch as soon as Ingest returns, and
// the JSON has no ingest section.
func TestIngestStatsInStatus(t *testing.T) {
	b, err := NewSketchBackend("Ours", sketch.Spec{MemoryBytes: 1 << 18, Lambda: 25, Seed: 1}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if ack := b.Ingest(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}}); ack.Accepted != 1 {
		t.Fatalf("ingest acked %+v, want 1 accepted", ack)
	}
	st := b.Status()
	if st.Updates != 1 {
		t.Fatalf("status updates %d, want 1", st.Updates)
	}
	if got, err := json.Marshal(st); err != nil || strings.Contains(string(got), `"ingest"`) {
		t.Fatalf("status JSON %s (%v) has an ingest section", got, err)
	}
}
