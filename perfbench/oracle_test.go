package main

import (
	"testing"

	"repro/internal/stream"
)

func TestOracleFlagsIntervalShiftedByOne(t *testing.T) {
	const exact = 10
	for _, c := range []struct {
		lower, upper uint64
		ok           bool
	}{
		{exact, exact, true},
		{exact - 3, exact + 2, true},
		{exact + 1, exact + 1, false}, // tight interval shifted up by one
		{exact - 1, exact - 1, false}, // and down by one
		{exact - 4, exact - 1, false}, // upper bound one short
		{exact + 1, exact + 6, false}, // lower bound one over
		{exact + 1, exact - 1, false}, // inverted
	} {
		if got := consistent(c.lower, c.upper, exact, exact); got != c.ok {
			t.Errorf("[%d, %d] vs %d: consistent = %v, want %v", c.lower, c.upper, exact, got, c.ok)
		}
	}
	// A bracket [lo, hi] of possible truths: a reply while writes were in
	// flight may show any of them, but not one outside.
	if !consistent(12, 12, 10, 14) || consistent(15, 15, 10, 14) || consistent(9, 9, 10, 14) {
		t.Error("bracketed check wrong")
	}
}

func TestOracleCounts(t *testing.T) {
	var items []stream.Item
	for _, kv := range [][2]uint64{{1, 1}, {2, 1}, {1, 2}, {3, 1}, {1, 1}, {2, 5}, {4, 1}} {
		items = append(items, stream.Item{Key: kv[0], Value: kv[1]})
	}
	const batch = 2 // batches: [1 2] [1 3] [1 2] [4]
	o := newOracle(items, batch)
	if o.batches != 4 || len(o.keys) != 4 {
		t.Fatalf("batches=%d keys=%d", o.batches, len(o.keys))
	}
	// Brute force over the looped stream.
	for n := 0; n <= 3*o.batches; n++ {
		want := map[uint64]uint64{}
		for b := 0; b < n; b++ {
			j := b % o.batches
			for _, it := range items[j*batch : min((j+1)*batch, len(items))] {
				want[it.Key] += it.Value
			}
		}
		for id, k := range o.keys {
			if got := o.prefixCount(int32(id), n); got != want[k] {
				t.Errorf("key %d after %d batches: %d, want %d", k, n, got, want[k])
			}
		}
	}
	got := o.passCounts([]bool{true, false, true, false})
	want := map[uint64]uint64{1: 2, 2: 6, 3: 0, 4: 0}
	for id, k := range o.keys {
		if got[id] != want[k] {
			t.Errorf("acked-only count of key %d = %d, want %d", k, got[id], want[k])
		}
	}
}
