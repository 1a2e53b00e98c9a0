package netsum

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/query"
)

// allocatedBy reports the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeBatch hardens the update decoder: arbitrary payloads must
// yield an error or a well-formed batch, never a panic or an allocation
// out of proportion to the payload.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(encodeBatch([]Update{{Key: 1, Value: 2}, {Key: 3, Value: 4}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// A lone count under the frame limit: 3 bytes must not buy 8 MiB.
	f.Add(binary.AppendUvarint(nil, 500000))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var ups []Update
		var err error
		// Updates are 16 bytes and need ≥ 2 payload bytes each; the slack
		// covers the error value and runtime noise.
		if n := allocatedBy(func() { ups, err = decodeBatch(payload) }); n > uint64(8*len(payload))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(payload), n)
		}
		if err != nil {
			return
		}
		if len(ups) > len(payload)/2 {
			t.Fatalf("%d updates decoded from %d bytes", len(ups), len(payload))
		}
		// Round-trip must be stable for well-formed batches.
		again, err := decodeBatch(encodeBatch(ups))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(ups) {
			t.Fatalf("round trip changed length: %d vs %d", len(again), len(ups))
		}
	})
}

// FuzzDecodeRequest hardens the exec-request decoder: arbitrary payloads
// yield an error or a request that survives an encode/decode round trip,
// with no more keys than the payload has bytes.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeRequest(query.Request{Kind: query.Point, Keys: []uint64{1, 2, 300}}))
	f.Add(encodeRequest(query.Request{Kind: query.Window, Agent: 7, Window: 4, Keys: []uint64{9}}))
	f.Add(encodeRequest(query.Request{Kind: query.TopK, K: 10}))
	f.Add([]byte{})
	f.Add(appendUvarints(nil, 0, 0, 0, 0, query.MaxBatchKeys))
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		if len(req.Keys) > len(payload) {
			t.Fatalf("%d keys decoded from %d bytes", len(req.Keys), len(payload))
		}
		again, err := decodeRequest(encodeRequest(req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request: %+v vs %+v", again, req)
		}
	})
}

// FuzzDecodeAnswer hardens the exec-answer decoder the agent side runs on
// collector replies, with the same contract as FuzzDecodeRequest.
func FuzzDecodeAnswer(f *testing.F) {
	f.Add(encodeAnswer(query.Answer{Certified: true, Source: "collector", PerKey: []query.Estimate{
		{Key: 1, Est: 10, Lower: 7, Upper: 10}, {Key: 2, Est: 0, Lower: 0, Upper: 0}}}))
	f.Add(encodeAnswer(query.Answer{Coverage: 3, Generation: 9, Source: "collector/agent"}))
	f.Add([]byte{})
	f.Add(appendUvarints(nil, 1, 0, 0, 0, query.MaxBatchKeys))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ans, err := decodeAnswer(payload)
		if err != nil {
			return
		}
		if len(ans.PerKey) > len(payload)/3 {
			t.Fatalf("%d estimates decoded from %d bytes", len(ans.PerKey), len(payload))
		}
		again, err := decodeAnswer(encodeAnswer(ans))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again, ans) {
			t.Fatalf("round trip changed the answer: %+v vs %+v", again, ans)
		}
	})
}

// FuzzReadFrame hardens the framing layer.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, msgHello, []byte{42})
	f.Add(buf.Bytes())
	f.Add([]byte{msgBatch})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(payload) > maxFrame {
			t.Fatalf("oversized payload %d accepted (type %d)", len(payload), typ)
		}
	})
}
