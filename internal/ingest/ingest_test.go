package ingest_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/sketch"
	_ "repro/internal/sketch/all"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// testStream is a small skewed stream with known ground truth.
func testStream(t testing.TB, n int) *stream.Stream {
	t.Helper()
	return stream.Zipf(n, n/10, 1.1, 7)
}

// foldPipeline drives a Pipeline the way the netsum collector does: every
// worker accumulates into a private same-Spec delta built by NewDelta, and
// Fold merges it into one shared target under a mutex. The returned target
// must only be read after Drain.
func foldPipeline(t testing.TB, algo string, spec sketch.Spec, tuning ingest.Tuning) (*ingest.Pipeline, sketch.Sketch) {
	t.Helper()
	target := sketch.MustBuild(algo, spec)
	var mu sync.Mutex
	p := ingest.New(ingest.Options{
		Tuning:   tuning,
		NewDelta: func() sketch.Sketch { return sketch.MustBuild(algo, spec) },
		Fold: func(delta sketch.Sketch) error {
			mu.Lock()
			defer mu.Unlock()
			return sketch.Merge(target, delta)
		},
	})
	t.Cleanup(func() { p.Close() })
	return p, target
}

// chunks slices a stream into submission-sized batches.
func chunks(items []stream.Item, size int) [][]stream.Item {
	var out [][]stream.Item
	for lo := 0; lo < len(items); lo += size {
		hi := min(lo+size, len(items))
		out = append(out, items[lo:hi])
	}
	return out
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]ingest.Policy{"block": ingest.Block, " DROP ": ingest.Drop, "": ingest.Block} {
		got, err := ingest.ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ingest.ParsePolicy("spill"); err == nil {
		t.Error("ParsePolicy(spill) accepted")
	}
}

// TestPipelineEquivalenceLinear pins the strongest claim the plane can
// make: for a linear sketch (CM) the pipeline-ingested state is BIT-EXACT
// against sequential InsertBatch, regardless of how batches were routed,
// partitioned across workers, or folded — counter sums commute.
func TestPipelineEquivalenceLinear(t *testing.T) {
	s := testStream(t, 60_000)
	spec := sketch.Spec{MemoryBytes: 1 << 18, Seed: 3}
	seq := sketch.MustBuild("CM_fast", spec)
	sketch.InsertBatch(seq, s.Items)

	p, target := foldPipeline(t, "CM_fast", spec, ingest.Tuning{Workers: 4, FlushItems: 1 << 12})
	for i, c := range chunks(s.Items, 777) {
		p.Submit(ingest.Batch{Items: c, Source: uint64(i%5) + 1})
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	for key := range s.Truth() {
		if got, want := target.Query(key), seq.Query(key); got != want {
			t.Fatalf("key %d: pipeline CM answers %d, sequential %d", key, got, want)
		}
	}
	st := p.Stats()
	if st.Accepted != uint64(s.Len()) || st.FoldedItems != uint64(s.Len()) || st.Dropped != 0 {
		t.Fatalf("stats %+v: want %d accepted and folded, 0 dropped", st, s.Len())
	}
}

// TestPipelineEquivalenceCertified checks the acceptance-criteria contract
// on the certified sketch, flat and sharded: pipeline-ingested state
// answers every key with a certified interval that contains the exact
// count, exactly as sequential InsertBatch state does.
func TestPipelineEquivalenceCertified(t *testing.T) {
	s := testStream(t, 60_000)
	for name, spec := range map[string]sketch.Spec{
		"flat":     {MemoryBytes: 1 << 19, Lambda: 25, Seed: 3},
		"sharded8": {MemoryBytes: 1 << 19, Lambda: 25, Seed: 3, Shards: 8},
	} {
		t.Run(name, func(t *testing.T) {
			seq := sketch.MustBuild("Ours", spec).(sketch.ErrorBounded)
			sketch.InsertBatch(seq, s.Items)

			p, target := foldPipeline(t, "Ours", spec, ingest.Tuning{Workers: 4, FlushItems: 1 << 12})
			for i, c := range chunks(s.Items, 1024) {
				p.Submit(ingest.Batch{Items: c, Source: uint64(i % 3)})
			}
			if err := p.Drain(); err != nil {
				t.Fatal(err)
			}
			eb, ok := target.(sketch.ErrorBounded)
			if !ok {
				t.Fatal("Ours fold target is not ErrorBounded")
			}
			for key, exact := range s.Truth() {
				est, mpe := eb.QueryWithError(key)
				lo := sketch.CertifiedLowerBound(est, mpe)
				if exact < lo || exact > est {
					t.Fatalf("key %d: pipeline interval [%d, %d] misses exact %d", key, lo, est, exact)
				}
				sEst, sMpe := seq.QueryWithError(key)
				sLo := sketch.CertifiedLowerBound(sEst, sMpe)
				if exact < sLo || exact > sEst {
					t.Fatalf("key %d: sequential interval [%d, %d] misses exact %d", key, sLo, sEst, exact)
				}
			}
		})
	}
}

// TestPipelineDropPolicy forces queue overflow with a gated Apply hook and
// checks the Ack and stats account every refused item — the "explicit
// backpressure" half of the contract.
func TestPipelineDropPolicy(t *testing.T) {
	gate := make(chan struct{})
	applied := 0
	p := ingest.New(ingest.Options{
		Tuning: ingest.Tuning{Workers: 1, Queue: 1, Policy: ingest.Drop},
		Apply: func(b ingest.Batch) error {
			<-gate
			applied += len(b.Items)
			return nil
		},
	})
	defer p.Close()
	items := []stream.Item{{Key: 1, Value: 1}, {Key: 2, Value: 1}}
	accepted, dropped := 0, 0
	// First batch is consumed by the worker (then parks on the gate), the
	// next fills the 1-slot queue, and everything after that must drop.
	for i := 0; i < 10; i++ {
		ack := p.Submit(ingest.Batch{Items: items})
		accepted += ack.Accepted
		dropped += ack.Dropped
	}
	if dropped == 0 {
		t.Fatal("no batch dropped with a full 1-slot queue")
	}
	if accepted+dropped != 20 {
		t.Fatalf("accepted %d + dropped %d != 20 submitted", accepted, dropped)
	}
	close(gate)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if applied != accepted {
		t.Fatalf("applied %d items, acked %d", applied, accepted)
	}
	st := p.Stats()
	if st.Dropped != uint64(dropped) || st.Applied != uint64(accepted) {
		t.Fatalf("stats %+v disagree with acks (accepted %d, dropped %d)", st, accepted, dropped)
	}
}

// TestPipelineBlockPolicyAcceptsEverything is the other half: Block never
// drops, even through a 1-slot queue.
func TestPipelineBlockPolicyAcceptsEverything(t *testing.T) {
	var mu sync.Mutex
	total := 0
	p := ingest.New(ingest.Options{
		Tuning: ingest.Tuning{Workers: 2, Queue: 1},
		Apply: func(b ingest.Batch) error {
			mu.Lock()
			total += len(b.Items)
			mu.Unlock()
			return nil
		},
	})
	defer p.Close()
	items := []stream.Item{{Key: 9, Value: 2}}
	for i := 0; i < 500; i++ {
		if ack := p.Submit(ingest.Batch{Items: items, Source: uint64(i)}); ack.Dropped != 0 {
			t.Fatalf("block policy dropped at submit %d", i)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if total != 500 {
		t.Fatalf("applied %d items, want 500", total)
	}
}

// TestPipelineFoldErrorSurfaces checks that a failing fold is retained and
// reported by Drain, Err, and Stats rather than swallowed.
func TestPipelineFoldErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	spec := sketch.Spec{MemoryBytes: 1 << 16, Seed: 1}
	p := ingest.New(ingest.Options{
		Tuning:   ingest.Tuning{Workers: 1},
		NewDelta: func() sketch.Sketch { return sketch.MustBuild("CM_fast", spec) },
		Fold:     func(d sketch.Sketch) error { return boom },
	})
	p.Submit(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})
	if err := p.Drain(); !errors.Is(err, boom) || !errors.Is(err, ingest.ErrLostWrites) {
		t.Fatalf("Drain error = %v, want boom wrapped in ErrLostWrites", err)
	}
	if st := p.Stats(); st.LastError == "" {
		t.Fatal("Stats().LastError empty after failed fold")
	}
	// A failed pipeline has lost items its certified state cannot cover:
	// it must stop ACCEPTING, not keep acking writes it may discard.
	if ack := p.Submit(ingest.Batch{Items: []stream.Item{{Key: 2, Value: 1}}}); ack.Accepted != 0 || ack.Dropped != 1 {
		t.Fatalf("submit after failure acked %+v, want 1 dropped", ack)
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want boom", err)
	}
}

// TestPipelineClosedSubmitDrops pins the lifecycle contract: submitting
// after Close drops (counted), instead of panicking on a closed queue.
func TestPipelineClosedSubmitDrops(t *testing.T) {
	p := ingest.New(ingest.Options{Apply: func(ingest.Batch) error { return nil }})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ack := p.Submit(ingest.Batch{Items: []stream.Item{{Key: 1, Value: 1}}})
	if ack.Dropped != 1 || ack.Accepted != 0 {
		t.Fatalf("submit after close acked %+v, want 1 dropped", ack)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
}

// TestPipelineRegisterMetrics checks the pipeline's Prometheus surface:
// the registered counters are the same instruments Stats reads, flushes
// are attributed to reasons, and fold latency is recorded once per fold.
func TestPipelineRegisterMetrics(t *testing.T) {
	var mu sync.Mutex
	target := sketch.MustBuild("CM_fast", sketch.Spec{MemoryBytes: 1 << 16, Seed: 1})
	p := ingest.New(ingest.Options{
		Tuning:   ingest.Tuning{Workers: 1, FlushItems: 100, FlushAge: time.Hour},
		NewDelta: func() sketch.Sketch { return sketch.MustBuild("CM_fast", sketch.Spec{MemoryBytes: 1 << 16, Seed: 1}) },
		Fold: func(d sketch.Sketch) error {
			mu.Lock()
			defer mu.Unlock()
			return target.(sketch.Mergeable).Merge(d)
		},
	})
	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg)

	s := testStream(t, 1000)
	for _, c := range chunks(s.Items, 250) {
		p.Submit(ingest.Batch{Items: c, Source: 1})
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	st := p.Stats()
	for _, want := range []string{
		fmt.Sprintf("ingest_submitted_items_total %d", st.Submitted),
		fmt.Sprintf("ingest_accepted_items_total %d", st.Accepted),
		fmt.Sprintf("ingest_folded_items_total %d", st.FoldedItems),
		fmt.Sprintf("ingest_folds_total %d", st.Folds),
		`ingest_flushes_total{reason="size"}`,
		`ingest_flushes_total{reason="barrier"}`,
		fmt.Sprintf("ingest_fold_duration_seconds_count %d", st.Folds),
		"ingest_workers 1",
		"ingest_queue_depth_batches 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every fold is attributed to exactly one reason.
	var attributed uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ingest_flushes_total{") {
			var v uint64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			attributed += v
		}
	}
	if attributed != st.Folds {
		t.Errorf("flush reasons sum to %d, want %d folds", attributed, st.Folds)
	}
}
