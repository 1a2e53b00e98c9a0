// Package ingest defines the one typed write-side contract every ingesting
// surface of this repository feeds: a Batch names what is being written
// (items, their producer, an optional epoch tag) and an Ack reports what
// happened to it, mirroring what internal/query did for the read side.
// queryd's /v1/insert and /v2/ingest endpoints, the WAL's records, and the
// netsum collector's wire frames all speak it.
//
// Every surface applies batches synchronously — standalone serving
// (queryd.SketchBackend) before it acks, the netsum collector in the
// connection handler that decoded the frame — so an Ack means "applied"
// and read-your-writes needs no barrier.
package ingest

import "repro/internal/stream"

// Batch is one unit of write-side work: the items to ingest, who produced
// them, and (optionally) which epoch they belong to.
type Batch struct {
	// Items are the key-value increments, in producer order.
	Items []stream.Item
	// Source attributes the batch to its producer (a netsum agent ID + 1,
	// an HTTP client's shard hint, ...); 0 means unattributed. The WAL
	// stores it per record, which is how replay lands a collector batch
	// in the agent that sent it.
	Source uint64
	// Epoch optionally tags the batch with a producer-side epoch sequence
	// number. It travels with the batch (the WAL records it) but does not
	// steer where the batch lands. 0 means untagged.
	Epoch uint64
}

// Ack reports what happened to a submitted batch: Accepted items were
// applied, Dropped items were refused as a whole batch (a failed WAL
// append, an unreachable cluster owner), so the caller knows exactly how
// many items were refused instead of silently losing them.
type Ack struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	// Generation is the target's sealed-set generation at acknowledgement
	// time, stamped by the serving edge (queryd, collector); 0 when the
	// target has no generations (cumulative sketches).
	Generation uint64 `json:"generation"`
}
