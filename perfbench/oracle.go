package main

import (
	"sort"

	"repro/internal/stream"
)

// oracle holds the exact counts of the generated stream. The generator
// posts the stream as a loop of fixed batches, so the exact count of a key
// after any prefix of posted batches is a pure function of the prefix
// length; after an arbitrary set of acked batches it is a sum over them.
type oracle struct {
	batches int              // batches in one pass of the stream
	ids     map[uint64]int32 // key → dense id, in order of first arrival
	keys    []uint64         // id → key
	total   []uint64         // id → value sum over one pass

	// Occurrences in CSR form: occBatch[off[id]:off[id+1]] are the batch
	// indexes holding the key (ascending, one per item) and occCum the
	// running value sum at each of them.
	off      []int32
	occBatch []int32
	occCum   []uint64
}

func newOracle(items []stream.Item, batchSize int) *oracle {
	o := &oracle{
		batches: (len(items) + batchSize - 1) / batchSize,
		ids:     make(map[uint64]int32, len(items)/16),
	}
	itemID := make([]int32, len(items))
	var n []int32
	for i, it := range items {
		id, ok := o.ids[it.Key]
		if !ok {
			id = int32(len(o.keys))
			o.ids[it.Key] = id
			o.keys = append(o.keys, it.Key)
			n = append(n, 0)
		}
		itemID[i] = id
		n[id]++
	}
	o.total = make([]uint64, len(o.keys))
	o.off = make([]int32, len(o.keys)+1)
	for id, c := range n {
		o.off[id+1] = o.off[id] + c
	}
	o.occBatch = make([]int32, len(items))
	o.occCum = make([]uint64, len(items))
	fill := append([]int32(nil), o.off[:len(o.keys)]...)
	for i, it := range items {
		id := itemID[i]
		o.total[id] += it.Value
		o.occBatch[fill[id]] = int32(i / batchSize)
		o.occCum[fill[id]] = o.total[id]
		fill[id]++
	}
	return o
}

// prefixCount is key id's exact value sum after the first n batches of the
// looped stream.
func (o *oracle) prefixCount(id int32, n int) uint64 {
	passes, rem := n/o.batches, int32(n%o.batches)
	c := uint64(passes) * o.total[id]
	lo := o.off[id]
	occ := o.occBatch[lo:o.off[id+1]]
	if j := sort.Search(len(occ), func(i int) bool { return occ[i] >= rem }); j > 0 {
		c += o.occCum[int(lo)+j-1]
	}
	return c
}

// passCounts is every key's exact value sum over the batches of one pass
// that acked marks, indexed by id.
func (o *oracle) passCounts(acked []bool) []uint64 {
	out := make([]uint64, len(o.keys))
	for id := range o.keys {
		var prev uint64
		for j := o.off[id]; j < o.off[id+1]; j++ {
			if acked[o.occBatch[j]] {
				out[id] += o.occCum[j] - prev
			}
			prev = o.occCum[j]
		}
	}
	return out
}

// consistent reports whether a certified interval [lower, upper] is
// possible for a key whose true count lies in [lo, hi]: lo counts what was
// acked before the query was sent, hi what was posted before its answer
// arrived. With lo == hi it is plain containment.
func consistent(lower, upper, lo, hi uint64) bool {
	return lower <= upper && lower <= hi && upper >= lo
}
