package netsum

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// TestWarmRestartStaysCertifiedUnderMemoryPressure restarts a collector
// mid-stream at memory budgets small enough to drive the emergency layer:
// half the trace, a checkpoint, a new collector that takes a quarter (the
// stand-in for a replayed WAL tail) before RestoreBaseline, then the rest.
// Every key's answer, and every key in the next checkpoint, must contain
// its exact count — which fails if the baseline is merged into the live
// merged view, since a sketch that takes inserts after a merge is not
// certified.
func TestWarmRestartStaysCertifiedUnderMemoryPressure(t *testing.T) {
	const agents = 4
	for _, mem := range []int{16 << 10, 64 << 10} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("mem=%dKiB/seed=%d", mem>>10, seed), func(t *testing.T) {
				spec := sketch.Spec{MemoryBytes: mem, Lambda: 25, Seed: seed}
				s := stream.IPTrace(200_000, seed)
				n := len(s.Items)

				before, err := NewCollector("127.0.0.1:0", CollectorConfig{Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				pushInTurn(t, before, s.Items[:n/2], agents)
				var ckpt bytes.Buffer
				if err := before.SnapshotGlobal(&ckpt); err != nil {
					t.Fatal(err)
				}
				before.Close()

				after, err := NewCollector("127.0.0.1:0", CollectorConfig{Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				defer after.Close()
				pushInTurn(t, after, s.Items[n/2:3*n/4], agents)
				if err := after.RestoreBaseline(&ckpt); err != nil {
					t.Fatal(err)
				}
				pushInTurn(t, after, s.Items[3*n/4:], agents)

				truth := s.Truth()
				keys := make([]uint64, 0, len(truth))
				for k := range truth {
					keys = append(keys, k)
				}
				var next bytes.Buffer
				if err := after.SnapshotGlobal(&next); err != nil {
					t.Fatal(err)
				}
				spec.Emergency = true // the collector forces it; the checkpoint records it
				restored := sketch.MustBuild("Ours", spec)
				if err := restored.(sketch.Snapshotter).Restore(&next); err != nil {
					t.Fatal(err)
				}
				eb := restored.(sketch.ErrorBounded)

				var served, checkpointed int
				for from := 0; from < len(keys); from += query.MaxBatchKeys {
					batch := keys[from:min(from+query.MaxBatchKeys, len(keys))]
					ans, err := after.Execute(query.Request{Kind: query.Point, Keys: batch})
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range ans.PerKey {
						if f := truth[e.Key]; f < e.Lower || f > e.Upper {
							served++
						}
					}
				}
				top, err := after.Execute(query.Request{Kind: query.TopK, K: 20})
				if err != nil {
					t.Fatal(err)
				}
				var heaviest uint64
				for k, f := range truth {
					if f > truth[heaviest] {
						heaviest = k
					}
				}
				found := false
				for _, e := range top.PerKey {
					found = found || e.Key == heaviest
					if f := truth[e.Key]; f < e.Lower || f > e.Upper {
						served++
					}
				}
				if !found {
					t.Errorf("top-20 misses the heaviest key %d (count %d)", heaviest, truth[heaviest])
				}
				for _, k := range keys {
					est, mpe := eb.QueryWithError(k)
					if f := truth[k]; f > est || f < sketch.CertifiedLowerBound(est, mpe) {
						checkpointed++
					}
				}
				if served > 0 || checkpointed > 0 {
					t.Errorf("%d keys: %d served and %d checkpointed intervals miss the exact count",
						len(keys), served, checkpointed)
				}
			})
		}
	}
}

// pushInTurn splits items round-robin across agents 1..agents and sends
// each agent's share in turn, syncing before the next agent starts, so the
// merged view takes its inserts in the same order on every run.
func pushInTurn(t *testing.T, c *Collector, items []stream.Item, agents int) {
	t.Helper()
	for id := 0; id < agents; id++ {
		a, err := Dial(c.Addr(), uint64(id+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := id; i < len(items); i += agents {
			if err := a.Record(items[i].Key, items[i].Value); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := a.Stats(); err != nil {
			t.Fatal(err)
		}
		a.Close()
	}
}
