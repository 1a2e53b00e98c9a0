package wal

import (
	"testing"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// FuzzDecodeRecord hardens the record payload decoder that WAL replay feeds
// straight into the ingest path. Arbitrary payloads must yield an error or
// a batch, never a panic, and the item slice may never outgrow what the
// payload can encode (two bytes per item at least). Seeded batches must
// round-trip through appendRecord exactly, and any batch the decoder
// accepts must survive a re-encode unchanged.
func FuzzDecodeRecord(f *testing.F) {
	seeds := []ingest.Batch{
		{},
		{Items: []stream.Item{{Key: 0, Value: 0}}},
		{Items: []stream.Item{{Key: ^uint64(0), Value: ^uint64(0)}}, Source: ^uint64(0), Epoch: ^uint64(0)},
	}
	for i := 0; i < 8; i++ {
		seeds = append(seeds, testBatch(i))
	}
	for _, b := range seeds {
		payload := appendRecord(nil, b)[frameHeaderLen:]
		got, err := decodeRecord(payload)
		if err != nil || !batchesEqual(got, b) {
			f.Fatalf("seed %+v decoded as %+v, %v", b, got, err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // count far beyond the payload
	f.Add([]byte{0, 0, 3, 1, 1, 1})                   // truncated third item
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := decodeRecord(payload)
		if 2*cap(b.Items) > len(payload) {
			t.Fatalf("%d-byte payload allocated %d items", len(payload), cap(b.Items))
		}
		if err != nil {
			return
		}
		again, err := decodeRecord(appendRecord(nil, b)[frameHeaderLen:])
		if err != nil {
			t.Fatalf("re-decode of an accepted batch failed: %v", err)
		}
		if !batchesEqual(again, b) {
			t.Fatalf("round trip changed the batch: %+v vs %+v", again, b)
		}
	})
}
