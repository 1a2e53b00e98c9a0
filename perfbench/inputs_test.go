package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	const n = 20_000
	a, b, c := buildInputs(7, n), buildInputs(7, n), buildInputs(8, n)
	same := func(x, y *inputs) bool {
		if len(x.ingest) != len(y.ingest) || len(x.zipf) != len(y.zipf) || len(x.uniform) != len(y.uniform) {
			return false
		}
		for i := range x.ingest {
			if !bytes.Equal(x.ingest[i], y.ingest[i]) {
				return false
			}
		}
		for _, qs := range [][2][]queryBody{{x.zipf, y.zipf}, {x.uniform, y.uniform}, {x.sweep, y.sweep}} {
			for i := range qs[0] {
				if !bytes.Equal(qs[0][i].body, qs[1][i].body) {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different request bodies")
	}
	if same(a, c) {
		t.Error("different seeds gave identical request bodies")
	}
}

func TestInputsEncodeTheirItems(t *testing.T) {
	in := buildInputs(3, 5_000)
	var total uint64
	for j, body := range in.ingest {
		var req struct {
			Items []struct{ Key, Value uint64 } `json:"items"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Items) != in.batchItems(j) {
			t.Fatalf("batch %d holds %d items, want %d", j, len(req.Items), in.batchItems(j))
		}
		for i, it := range req.Items {
			if want := in.items[j*ingestBatch+i]; it.Key != want.Key || it.Value != want.Value {
				t.Fatalf("batch %d item %d = %+v, want %+v", j, i, it, want)
			}
			total += it.Value
		}
	}
	if total != uint64(len(in.items)) {
		t.Errorf("bodies carry %d, stream has %d", total, len(in.items))
	}
	seen := map[uint64]bool{}
	for _, q := range in.sweep {
		var req struct {
			Kind string   `json:"kind"`
			Keys []uint64 `json:"keys"`
		}
		if err := json.Unmarshal(q.body, &req); err != nil || req.Kind != "point" || len(req.Keys) != len(q.keys) {
			t.Fatalf("sweep body %s: %v", q.body, err)
		}
		for i, k := range req.Keys {
			if k != q.keys[i] || in.oracle.keys[q.ids[i]] != k {
				t.Fatalf("sweep key %d mismatch", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != len(in.oracle.keys) {
		t.Errorf("sweep covers %d of %d distinct keys", len(seen), len(in.oracle.keys))
	}
}
