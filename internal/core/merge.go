package core

import (
	"fmt"

	"repro/internal/sketch"
)

// Merge folds another ReliableSketch built from the same Spec (identical
// Λ, geometry, and hash seed) into the receiver, so that afterwards every
// certified interval [est − mpe, est] contains the UNION stream's true sum.
//
// The merge is layer-local: buckets at the same position combine votes
// (bucket.Merge), filter counters add saturating at the counter word
// (filter.Merge), and the emergency Space-Saving layers union with error
// composition. Two costs are inherent and documented rather than hidden:
//
//   - Merged NO totals may exceed a layer's lock threshold λ, so the
//     per-key certified MPE of a merged sketch is bounded by the SUM of the
//     parts' certificates (≤ k·Λ for k merged parts with the emergency
//     layer on), not by a single Λ — exactly the bound the netsum collector
//     advertises for estimate-summing, now available from one sketch.
//   - The early query-stop heuristics are disabled (see stopAt), trading a
//     few extra layer reads per query for soundness.
//
// Inserts into a sketch after it has been a merge target are NOT
// certified: once memory pressure drives the emergency layer, keys can
// land outside their interval. Merge into sketches that then only take
// further merges and queries (a checkpoint, a replica's merged view), and
// keep live insert targets merge-free.
//
// The argument is read, never written; the receiver must not be inserted
// into concurrently.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*Sketch)
	if !ok {
		return sketch.MergeIncompatible(s, other, fmt.Sprintf("not a ReliableSketch (%T)", other))
	}
	if err := s.compatible(o); err != nil {
		return err
	}
	if s.mice != nil {
		if !s.mice.Merge(o.mice) {
			return sketch.MergeIncompatible(s, other, "mice filter geometry differs")
		}
	}
	for i := range s.layers {
		dst, src := s.layers[i], o.layers[i]
		for j := range dst {
			dst[j].Merge(src[j])
		}
	}
	if s.emerg != nil && o.emerg != nil {
		if err := s.emerg.Merge(o.emerg); err != nil {
			return err
		}
	}
	s.merged = true
	s.failures += o.failures
	s.failedValue += o.failedValue
	s.insertOps += o.insertOps
	s.insertHashCalls += o.insertHashCalls
	s.queryOps.Add(o.queryOps.Load())
	s.queryHashCalls.Add(o.queryHashCalls.Load())
	return nil
}

// compatible verifies the two sketches hash and size identically — the
// same-Spec contract every Mergeable implementation enforces. Positional
// bucket merging is only meaningful when every layer has the same width and
// the same derived hash seeds.
func (s *Sketch) compatible(o *Sketch) error {
	switch {
	case s.cfg.Seed != o.cfg.Seed:
		return sketch.MergeIncompatible(s, o, fmt.Sprintf("seed %d vs %d", s.cfg.Seed, o.cfg.Seed))
	case s.lambda != o.lambda:
		return sketch.MergeIncompatible(s, o, fmt.Sprintf("Λ %d vs %d", s.lambda, o.lambda))
	case len(s.layers) != len(o.layers):
		return sketch.MergeIncompatible(s, o, fmt.Sprintf("%d vs %d layers", len(s.layers), len(o.layers)))
	case (s.mice == nil) != (o.mice == nil):
		return sketch.MergeIncompatible(s, o, "mice filter enabled on one side only")
	case (s.emerg == nil) != (o.emerg == nil):
		return sketch.MergeIncompatible(s, o, "emergency layer enabled on one side only")
	case s.emerg != nil && s.emerg.Counters() != o.emerg.Counters():
		// Checked here, before Merge touches any receiver state: the
		// emergency layers are merged last, and a failure there would leave
		// the filter and buckets already combined — corrupted state without
		// the merged-safe query walk enabled.
		return sketch.MergeIncompatible(s, o,
			fmt.Sprintf("emergency capacity %d vs %d", s.emerg.Counters(), o.emerg.Counters()))
	}
	for i := range s.widths {
		if s.widths[i] != o.widths[i] || s.lambdas[i] != o.lambdas[i] {
			return sketch.MergeIncompatible(s, o,
				fmt.Sprintf("layer %d geometry (%d,λ%d) vs (%d,λ%d)",
					i, s.widths[i], s.lambdas[i], o.widths[i], o.lambdas[i]))
		}
	}
	return nil
}
