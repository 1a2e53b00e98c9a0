package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/ingest"
	"repro/internal/stream"
)

// On-disk layout.
//
// Segment files are named wal-%016d.seg, the number being the LSN of the
// segment's first record — a record's LSN is its ordinal position, never
// stored per record. Each segment starts with a 12-byte header:
//
//	magic "RWL1" | first LSN (8 bytes little-endian)
//
// followed by length-framed records:
//
//	payload length (4 bytes LE) | CRC32-C of payload (4 bytes LE) | payload
//
// The payload is the typed ingest.Batch in uvarints: source, epoch, item
// count, then key/value pairs. The CRC is the torn-tail detector: a crash
// mid-write leaves a frame whose checksum cannot match, and recovery
// truncates to the last whole record instead of ever replaying a partial
// batch.

var segmentMagic = [4]byte{'R', 'W', 'L', '1'}

const (
	segmentHeaderLen = 12
	frameHeaderLen   = 8
	// maxRecordBytes bounds a frame's declared length: anything larger is
	// treated as a torn tail, not an allocation request. Comfortably above
	// the HTTP ingest body cap.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentName renders the file name of the segment starting at lsn.
func segmentName(lsn uint64) string { return fmt.Sprintf("wal-%016d.seg", lsn) }

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	var lsn uint64
	if _, err := fmt.Sscanf(name, "wal-%016d.seg", &lsn); err != nil || segmentName(lsn) != name {
		return 0, false
	}
	return lsn, true
}

// writeSegmentHeader stamps a segment file's header and positions the file
// for the first record.
func writeSegmentHeader(f *os.File, first uint64) error {
	var hdr [segmentHeaderLen]byte
	copy(hdr[:4], segmentMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:], first)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if _, err := f.Seek(segmentHeaderLen, 0); err != nil {
		return err
	}
	return nil
}

// checkSegmentHeader validates a segment's 12-byte header against the LSN
// its file name claims.
func checkSegmentHeader(hdr []byte, wantFirst uint64) error {
	if len(hdr) < segmentHeaderLen || [4]byte(hdr[:4]) != segmentMagic {
		return fmt.Errorf("wal: bad segment magic %q", hdr[:min(len(hdr), 4)])
	}
	if got := binary.LittleEndian.Uint64(hdr[4:]); got != wantFirst {
		return fmt.Errorf("wal: segment header claims first LSN %d, file name says %d", got, wantFirst)
	}
	return nil
}

// appendRecord encodes one framed record onto dst.
func appendRecord(dst []byte, b ingest.Batch) []byte {
	frameAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	payloadAt := len(dst)
	dst = binary.AppendUvarint(dst, b.Source)
	dst = binary.AppendUvarint(dst, b.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(b.Items)))
	for _, it := range b.Items {
		dst = binary.AppendUvarint(dst, it.Key)
		dst = binary.AppendUvarint(dst, it.Value)
	}
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint32(dst[frameAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[frameAt+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodeRecord parses a CRC-verified payload back into the typed batch.
func decodeRecord(payload []byte) (ingest.Batch, error) {
	var b ingest.Batch
	next := func() (uint64, error) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, fmt.Errorf("wal: record payload truncated despite valid CRC")
		}
		payload = payload[n:]
		return v, nil
	}
	var err error
	if b.Source, err = next(); err != nil {
		return b, err
	}
	if b.Epoch, err = next(); err != nil {
		return b, err
	}
	count, err := next()
	if err != nil {
		return b, err
	}
	// Each item is ≥ 2 bytes; a count the remaining payload cannot hold is
	// corruption that slipped a CRC collision — refuse, don't allocate.
	if count > uint64(len(payload))/2 {
		return b, fmt.Errorf("wal: record claims %d items in %d payload bytes", count, len(payload))
	}
	b.Items = make([]stream.Item, count)
	for i := range b.Items {
		if b.Items[i].Key, err = next(); err != nil {
			return b, err
		}
		if b.Items[i].Value, err = next(); err != nil {
			return b, err
		}
	}
	return b, nil
}
