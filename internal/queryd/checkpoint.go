package queryd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sketch"
)

// Checkpoint files make sketch state durable across restarts. The file is
// self-describing — magic "RQC2" | algorithm name | the Spec the sketch was
// built from | the WAL cut LSN | the sketch snapshot — so a warm restart can
// rebuild the exact same-Spec sketch before restoring into it, and a
// mismatched restore is refused by name instead of misparsing counters.
//
// The WAL cut LSN records the last write-ahead-log record folded into the
// snapshot; recovery replays strictly after it. It lives in the checkpoint
// file rather than only in the WAL manifest because the checkpoint rename
// and the manifest's watermark advance cannot be atomic with each other —
// the checkpoint itself must say where replay starts. "RQC1" files (written
// before WAL support) are still readable and carry an implicit LSN of 0.

var (
	checkpointMagic   = [4]byte{'R', 'Q', 'C', '2'}
	checkpointMagicV1 = [4]byte{'R', 'Q', 'C', '1'}
)

// WriteCheckpoint atomically writes a checkpoint to path: the header, then
// whatever snapshot writes (typically a Snapshotter's Snapshot or the
// collector's SnapshotGlobal). The snapshot runs before the header is
// encoded, so lsn — which reports the WAL position the snapshot covers —
// is read after the snapshot's cut completes; pass nil when no WAL is
// attached. The file appears under its final name only once fully written,
// synced, and its directory entry synced, so a crash mid-checkpoint leaves
// the previous checkpoint intact.
func WriteCheckpoint(path, algo string, spec sketch.Spec, snapshot func(io.Writer) error, lsn func() uint64) (err error) {
	// Buffer the snapshot first: it performs the consistency cut (serialize
	// with ingest excluded), and the cut LSN is only correct once that cut
	// has happened.
	var body bytes.Buffer
	if err := snapshot(&body); err != nil {
		return fmt.Errorf("queryd: snapshotting into checkpoint: %w", err)
	}
	var cut uint64
	if lsn != nil {
		cut = lsn()
	}

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("queryd: creating checkpoint temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 256<<10)
	if err = writeCheckpointHeader(bw, algo, spec, cut); err != nil {
		return err
	}
	if _, err = body.WriteTo(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncParentDir(path)
}

// syncParentDir fsyncs path's directory so the rename that published the
// file is itself durable.
func syncParentDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CleanCheckpointTemps removes stale temp files a crashed checkpoint write
// left next to path. Call it once at startup, before the first checkpoint.
func CleanCheckpointTemps(path string) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base+".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCheckpointHeader(w io.Writer, algo string, spec sketch.Spec, walLSN uint64) error {
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return err
	}
	return writeSpecHeader(w, algo, spec, walLSN)
}

// writeSpecHeader encodes the self-describing portion shared by checkpoint
// files and delta envelopes: algorithm name, the Spec the sketch was built
// from, and one format-specific trailing word (the WAL cut LSN for
// checkpoints, the delta version for replication).
func writeSpecHeader(w io.Writer, algo string, spec sketch.Spec, tail uint64) error {
	var buf [binary.MaxVarintLen64]byte
	write := func(vs ...uint64) error {
		for _, v := range vs {
			n := binary.PutUvarint(buf[:], v)
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(uint64(len(algo))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, algo); err != nil {
		return err
	}
	emergency := uint64(0)
	if spec.Emergency {
		emergency = 1
	}
	if err := write(uint64(spec.MemoryBytes), spec.Lambda, spec.Seed,
		uint64(spec.FilterBits), math.Float64bits(spec.Rw), math.Float64bits(spec.Rl),
		emergency, uint64(spec.Shards)); err != nil {
		return err
	}
	return write(tail)
}

// OpenCheckpoint opens a checkpoint file and decodes its header, including
// the WAL cut LSN replay must start after (0 for pre-WAL "RQC1" files). The
// returned reader is positioned at the snapshot payload; the caller closes
// it (typically by handing it to Snapshotter.Restore or
// Collector.RestoreBaseline first).
func OpenCheckpoint(path string) (algo string, spec sketch.Spec, walLSN uint64, payload io.ReadCloser, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", sketch.Spec{}, 0, nil, err
	}
	br := bufio.NewReaderSize(f, 256<<10)
	algo, spec, walLSN, err = readCheckpointHeader(br)
	if err != nil {
		f.Close()
		return "", sketch.Spec{}, 0, nil, fmt.Errorf("queryd: %s: %w", path, err)
	}
	return algo, spec, walLSN, &checkpointReader{Reader: br, f: f}, nil
}

// checkpointReader pairs the buffered payload reader with the underlying
// file's Close.
type checkpointReader struct {
	*bufio.Reader
	f *os.File
}

func (c *checkpointReader) Close() error { return c.f.Close() }

func readCheckpointHeader(br *bufio.Reader) (string, sketch.Spec, uint64, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return "", sketch.Spec{}, 0, fmt.Errorf("reading checkpoint magic: %w", err)
	}
	hasLSN := magic == checkpointMagic
	if !hasLSN && magic != checkpointMagicV1 {
		return "", sketch.Spec{}, 0, fmt.Errorf("bad checkpoint magic %q", magic[:])
	}
	return readSpecHeader(br, hasLSN)
}

// readSpecHeader decodes what writeSpecHeader wrote (the caller has already
// consumed and validated the magic). withTail is false only for pre-WAL
// "RQC1" checkpoints, which end after the spec fields.
func readSpecHeader(br *bufio.Reader, withTail bool) (string, sketch.Spec, uint64, error) {
	read := func() (uint64, error) { return binary.ReadUvarint(br) }
	nameLen, err := read()
	if err != nil {
		return "", sketch.Spec{}, 0, fmt.Errorf("checkpoint algo length: %w", err)
	}
	if nameLen > 256 {
		return "", sketch.Spec{}, 0, fmt.Errorf("implausible checkpoint algo length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", sketch.Spec{}, 0, fmt.Errorf("checkpoint algo name: %w", err)
	}
	var fields [8]uint64
	for i := range fields {
		v, err := read()
		if err != nil {
			return "", sketch.Spec{}, 0, fmt.Errorf("checkpoint spec field %d: %w", i, err)
		}
		fields[i] = v
	}
	var tail uint64
	if withTail {
		if tail, err = read(); err != nil {
			return "", sketch.Spec{}, 0, fmt.Errorf("checkpoint trailing word: %w", err)
		}
	}
	spec := sketch.Spec{
		MemoryBytes: int(fields[0]),
		Lambda:      fields[1],
		Seed:        fields[2],
		FilterBits:  int(fields[3]),
		Rw:          math.Float64frombits(fields[4]),
		Rl:          math.Float64frombits(fields[5]),
		Emergency:   fields[6] == 1,
		Shards:      int(fields[7]),
	}
	return string(name), spec, tail, nil
}
