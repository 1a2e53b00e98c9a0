package main

import (
	"math/rand/v2"
	"sort"
	"strconv"

	"repro/internal/stream"
)

const (
	// streamItems is one pass of the generated IP-trace stand-in (zipf 1.1,
	// 4% distinct keys). Writers loop over it; the query workloads preload
	// exactly one pass.
	streamItems = 1_000_000
	// ingestBatch and queryBatch are the request sizes: an agent's
	// 512-item /v2/ingest batch and a dashboard's 64-key /v2/query batch.
	ingestBatch = 512
	queryBatch  = 64
	// zipfBodies is the pool of popularity-drawn query batches the
	// query-zipf clients cycle through (524k keys).
	zipfBodies = 8192
)

// queryBody is one pre-encoded /v2/query point batch, its keys, and their
// oracle ids.
type queryBody struct {
	keys []uint64
	ids  []int32
	body []byte
}

// inputs is everything a run sends, built before any timing starts and a
// pure function of the seed: the same seed gives byte-identical bodies.
type inputs struct {
	seed    uint64
	items   []stream.Item
	ingest  [][]byte // one /v2/ingest body per batch, in stream order
	oracle  *oracle
	zipf    []queryBody // keys drawn with the stream's own popularity
	uniform []queryBody // a shuffled cycle over every distinct key
	sweep   []queryBody // every distinct key, ascending: the end-of-run check
}

func buildInputs(seed uint64, items int) *inputs {
	s := stream.IPTrace(items, seed)
	in := &inputs{seed: seed, items: s.Items, oracle: newOracle(s.Items, ingestBatch)}
	for lo := 0; lo < len(s.Items); lo += ingestBatch {
		in.ingest = append(in.ingest, encodeIngest(s.Items[lo:min(lo+ingestBatch, len(s.Items))]))
	}

	// Popularity draws: a uniformly random item's key is a key drawn in
	// proportion to its frequency in the stream.
	r := rand.New(rand.NewPCG(seed, 0x7a1f))
	for range zipfBodies {
		keys := make([]uint64, queryBatch)
		for i := range keys {
			keys[i] = s.Items[r.IntN(len(s.Items))].Key
		}
		in.zipf = append(in.zipf, in.oracle.queryBody(keys))
	}

	distinct := append([]uint64(nil), in.oracle.keys...)
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	in.sweep = in.oracle.chunk(distinct)
	shuffled := append([]uint64(nil), distinct...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	in.uniform = in.oracle.chunk(shuffled)
	return in
}

func (o *oracle) queryBody(keys []uint64) queryBody {
	ids := make([]int32, len(keys))
	for i, k := range keys {
		ids[i] = o.ids[k]
	}
	return queryBody{keys: keys, ids: ids, body: encodeQuery(keys)}
}

// chunk cuts keys into consecutive query batches.
func (o *oracle) chunk(keys []uint64) []queryBody {
	var out []queryBody
	for lo := 0; lo < len(keys); lo += queryBatch {
		out = append(out, o.queryBody(keys[lo:min(lo+queryBatch, len(keys))]))
	}
	return out
}

// encodeIngest renders {"items":[{"key":K,"value":V},...]}, the body
// rsgen -ingest sends.
func encodeIngest(items []stream.Item) []byte {
	b := make([]byte, 0, 16+len(items)*40)
	b = append(b, `{"items":[`...)
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = strconv.AppendUint(b, it.Key, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendUint(b, it.Value, 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// encodeQuery renders {"kind":"point","keys":[...]}.
func encodeQuery(keys []uint64) []byte {
	b := make([]byte, 0, 32+len(keys)*21)
	b = append(b, `{"kind":"point","keys":[`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, k, 10)
	}
	return append(b, "]}"...)
}
