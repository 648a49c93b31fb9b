// Package wal is a segmented, CRC-framed write-ahead log for the durable
// shard serving layer. Every acknowledged delta is appended as one record
// before the acknowledgement leaves the node, so a crashed process can
// replay its way back to the exact acknowledged state from disk.
//
// Layout: a log directory holds segment files named by the LSN of their
// first record,
//
//	wal-0000000000000001.seg
//	wal-0000000000000042.seg
//
// each starting with an 16-byte segment header (magic + first LSN) and
// holding a run of consecutive records:
//
//	+----------+----------+----------+------------------+
//	| len u32  | crc u32  | lsn u64  | payload len bytes|
//	+----------+----------+----------+------------------+
//
// len is the payload length; crc is IEEE CRC32 over the LSN (little
// endian) followed by the payload. LSNs are assigned densely starting at
// 1. On Open the last segment's tail is scanned record by record: a
// truncated frame or a CRC mismatch at the tail is the signature of a
// crash mid-append ("torn tail") and is truncated away; the same damage
// in the *interior* of the log is corruption and fails Open, because
// records after the damage were once acknowledged.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"parcube/internal/obs"
)

const (
	segMagic      = "PCWALSG1"
	segHeaderSize = len(segMagic) + 8 // magic + first-LSN u64
	frameHeader   = 4 + 4 + 8         // len u32 + crc u32 + lsn u64

	// MaxRecordBytes bounds one record's payload. The length field is
	// read back from disk before the payload allocation, so the decoder
	// refuses anything past this bound instead of trusting a corrupt
	// frame (the untrusted-alloc discipline, applied to file input).
	MaxRecordBytes = 16 << 20
)

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the segment after every append: an acknowledged
	// record survives kill -9. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per Options.FsyncEvery, amortizing
	// the disk flush over a burst of appends; a crash can lose the
	// records appended since the last sync.
	FsyncInterval
	// FsyncNever leaves syncing to the OS (and Close). Fastest, weakest.
	FsyncNever
)

// String names the policy as accepted by ParsePolicy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParsePolicy parses "always", "interval", or "never".
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options tunes a Log.
type Options struct {
	// Fsync is the sync policy for appends. Default FsyncAlways.
	Fsync FsyncPolicy
	// FsyncEvery is the minimum gap between syncs under FsyncInterval.
	// Default 100ms.
	FsyncEvery time.Duration
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. Default 4 MiB.
	SegmentBytes int64
	// Metrics receives the log's series (wal.group_size, the records in
	// each synced run); nil means a private registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// ErrTrimmed reports a replay request below the log's retained floor:
// the records were deleted by TrimBelow after a checkpoint covered them.
var ErrTrimmed = errors.New("wal: requested records were trimmed")

// errTornHeader marks a segment whose header is missing, short, or
// inconsistent with its file name. On the log's last segment this is the
// signature of a crash between segment creation and the header becoming
// durable (the header precedes every frame in the file, so no record in
// such a segment was ever fsynced) and Open recovers by dropping the
// file; anywhere else it is interior corruption and fails Open.
var errTornHeader = errors.New("wal: torn segment header")

// errCrashed rejects every operation after Crash() dropped the handle.
// A shared value, not fmt.Errorf per rejection: the crashed check sits
// on the hot append path.
var errCrashed = errors.New("wal: log crashed")

// Record is one replayed log entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Log is an append-only segmented write-ahead log. All methods are safe
// for concurrent use; appends are serialized internally.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	seg       *os.File // active segment
	segStart  uint64   // first LSN of the active segment (0 = none open)
	segSize   int64    // bytes written to the active segment
	lastLSN   uint64   // highest appended LSN (0 = empty log)
	firstLSN  uint64   // lowest retained LSN (lastLSN+1 when empty/trimmed clean)
	lastSync  time.Time
	dirDirty  bool // a segment file was created since the last directory fsync
	crashed   bool // Crash() was called: the handle is gone, reject use
	syncCount int64

	groupSize *obs.Histogram // records per synced run
}

// segName renders the file name for a segment whose first record is lsn.
//
//cubelint:ignore hot-fmt runs once per segment rotation, not per record
func segName(lsn uint64) string { return fmt.Sprintf("wal-%016x.seg", lsn) }

// parseSegName extracts the first LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// Open opens (or creates) the log in dir, scans every segment, truncates
// a torn tail, and positions the log for appending. Interior corruption
// — a bad frame with intact records after it — fails Open.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := &Log{dir: dir, opts: opts, firstLSN: 1, groupSize: reg.Histogram("wal.group_size")}
	// A crash between segment creation and its header write (or power loss
	// before the header became durable) leaves a tail segment with a zero,
	// short, or garbled header. The header precedes every frame in the
	// file, so no record in such a segment was ever fsynced: this is torn-
	// tail damage, not corruption — drop the file and recover on whatever
	// precedes it. The file name still fixes the log position, so a
	// post-trim log does not restart at LSN 1.
	for len(segs) > 0 {
		start := segs[len(segs)-1]
		path := filepath.Join(dir, segName(start))
		if _, _, err := scanSegment(path, start, true); !errors.Is(err, errTornHeader) {
			break
		}
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("wal: removing segment with torn header: %w", err)
		}
		segs = segs[:len(segs)-1]
		if len(segs) == 0 {
			l.lastLSN = start - 1
			l.firstLSN = start
		}
	}
	if len(segs) == 0 {
		return l, nil
	}
	l.firstLSN = segs[0]
	// Validate every segment; only the last may be torn.
	for i, start := range segs {
		last := i == len(segs)-1
		want := start
		if i > 0 {
			// Segments must be LSN-contiguous with their predecessor.
			if start != l.lastLSN+1 {
				return nil, fmt.Errorf("wal: segment %s starts at lsn %d, previous segment ended at %d",
					segName(start), start, l.lastLSN)
			}
		}
		end, lastRec, err := scanSegment(filepath.Join(dir, segName(start)), start, last)
		if err != nil {
			if errors.Is(err, errTornHeader) {
				// The pre-pass cleared torn tail headers; damage here has
				// intact segments after it, so it is interior corruption.
				return nil, fmt.Errorf("wal: %s: bad segment header in log interior", segName(start))
			}
			return nil, err
		}
		if lastRec >= want {
			l.lastLSN = lastRec
		} else if !last {
			return nil, fmt.Errorf("wal: segment %s holds no records", segName(start))
		}
		if last {
			l.segStart = start
			l.segSize = end
		}
	}
	// Reopen the last segment for appending, truncating the torn tail.
	path := filepath.Join(l.dir, segName(l.segStart))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(l.segSize); err != nil {
		cerr := f.Close()
		return nil, errors.Join(fmt.Errorf("wal: truncating torn tail of %s: %w", path, err), cerr)
	}
	if _, err := f.Seek(l.segSize, io.SeekStart); err != nil {
		cerr := f.Close()
		return nil, errors.Join(fmt.Errorf("wal: %w", err), cerr)
	}
	l.seg = f
	if l.lastLSN == 0 && l.segStart > 0 {
		// The only segment lost its every record to the torn tail; the
		// next append reuses its header's first LSN.
		l.lastLSN = l.segStart - 1
	}
	return l, nil
}

// listSegments returns the first-LSNs of the directory's segments,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSegName(e.Name()); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment validates one segment file, returning the byte offset just
// past the last intact record and that record's LSN (start-1 when the
// segment holds none). When tornOK, a damaged or truncated tail frame is
// accepted (and excluded from the returned offset); otherwise it is an
// error.
func scanSegment(path string, start uint64, tornOK bool) (end int64, lastLSN uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	if len(data) < segHeaderSize || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("%w: %s: bad segment header", errTornHeader, path)
	}
	if got := binary.LittleEndian.Uint64(data[len(segMagic):]); got != start {
		return 0, 0, fmt.Errorf("%w: %s: header first-lsn %d does not match name", errTornHeader, path, got)
	}
	off := int64(segHeaderSize)
	lastLSN = start - 1
	want := start
	for {
		rec, n, ok := decodeFrame(data[off:], want)
		if !ok {
			if int64(len(data)) == off {
				return off, lastLSN, nil // clean end
			}
			if tornOK {
				return off, lastLSN, nil // torn tail: caller truncates
			}
			return 0, 0, fmt.Errorf("wal: %s: corrupt record at offset %d (lsn %d expected)", path, off, want)
		}
		lastLSN = rec.LSN
		want = rec.LSN + 1
		off += int64(n)
	}
}

// decodeFrame decodes one record frame from b, requiring LSN == want.
// It returns ok=false on truncation, CRC mismatch, an implausible
// length, or an out-of-order LSN.
func decodeFrame(b []byte, want uint64) (Record, int, bool) {
	if len(b) < frameHeader {
		return Record{}, 0, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxRecordBytes || int64(frameHeader)+int64(n) > int64(len(b)) {
		return Record{}, 0, false
	}
	crc := binary.LittleEndian.Uint32(b[4:])
	lsn := binary.LittleEndian.Uint64(b[8:])
	payload := b[frameHeader : frameHeader+int(n)]
	if lsn != want || crcOf(lsn, payload) != crc {
		return Record{}, 0, false
	}
	return Record{LSN: lsn, Payload: payload}, frameHeader + int(n), true
}

// crcOf hashes a record's LSN and payload.
func crcOf(lsn uint64, payload []byte) uint32 {
	var lb [8]byte
	binary.LittleEndian.PutUint64(lb[:], lsn)
	h := crc32.NewIEEE()
	h.Write(lb[:])
	h.Write(payload)
	return h.Sum32()
}

// appendFrame renders one record frame onto buf.
func appendFrame(buf []byte, lsn uint64, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crcOf(lsn, payload))
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	return append(buf, payload...)
}

// LastLSN returns the highest appended LSN (0 when the log is empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// FirstLSN returns the lowest LSN still retained (lastLSN+1 when none).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstLSN
}

// Syncs returns how many fsyncs the log has issued.
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncCount
}

// Append writes one record with the next LSN and returns it: a run of
// one. The record is on stable storage when Append returns, under
// FsyncAlways. Concurrent callers serialize on the log's lock, each
// paying its own sync; batching happens above the log, where the
// coordinator's per-group queue turns concurrent deltas into one run.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.lastLSN + 1
	if _, err := l.appendRunLocked([]Record{{LSN: lsn, Payload: payload}}); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendAt writes one record at an explicit LSN: a positioned run of
// one. A record at or below the current LSN is a duplicate and is
// skipped (applied=false, no error); a gap is an error.
func (l *Log) AppendAt(lsn uint64, payload []byte) (applied bool, err error) {
	n, err := l.AppendBatchAt([]Record{{LSN: lsn, Payload: payload}})
	return n == 1, err
}

// AppendBatchAt durably logs a run of records at explicit consecutive
// LSNs with one buffered write and one policy sync — the lockstep
// ingest path (every DELTA and DELTABATCH ends here). Records at or
// below the current LSN are skipped (idempotent redelivery); the first
// gap or oversized record fails the run from that record on (the
// already-written prefix stays, and is synced). applied counts the
// records written this call.
func (l *Log) AppendBatchAt(recs []Record) (applied int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendRunLocked(recs)
}

// admitLocked checks the next record of a run against the log position.
func (l *Log) admitLocked(rec Record) error {
	if rec.LSN != l.lastLSN+1 {
		return fmt.Errorf("wal: append at lsn %d leaves a gap after %d", rec.LSN, l.lastLSN)
	}
	if int64(len(rec.Payload)) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(rec.Payload), int64(MaxRecordBytes))
	}
	return nil
}

// appendRunLocked is the log's only frame writer. It buffers the run's
// frames and writes them with one segment write per segment stretch
// (rotating when the active segment is full), rolls the log position
// back over any frames a failed write left in the buffer, issues one
// policy sync for the whole run, and observes wal.group_size once per
// synced run — runs of one included. A failed sync returns the applied
// count with the error: the frames are in the file but none may be
// acknowledged durable. Callers hold l.mu.
//
//cubelint:hotpath the ingest write path: every acknowledged record's frame is written and synced here
func (l *Log) appendRunLocked(recs []Record) (applied int, err error) {
	if l.crashed {
		return 0, errCrashed
	}
	bufCap := 0
	for _, rec := range recs {
		bufCap += frameHeader + len(rec.Payload)
	}
	var (
		buf      = make([]byte, 0, bufCap)
		buffered int // records in buf, not yet written to the segment
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, werr := l.seg.Write(buf); werr != nil {
			return fmt.Errorf("wal: append: %w", werr)
		}
		l.segSize += int64(len(buf))
		buf = buf[:0]
		buffered = 0
		return nil
	}
	startLSN := l.lastLSN
	var runErr error
	for _, rec := range recs {
		if rec.LSN <= l.lastLSN {
			continue // idempotent redelivery
		}
		if runErr = l.admitLocked(rec); runErr != nil {
			break
		}
		if l.seg == nil || l.segSize+int64(len(buf)) >= l.opts.SegmentBytes {
			if runErr = flush(); runErr != nil {
				break
			}
			if runErr = l.rotateLocked(rec.LSN); runErr != nil {
				break
			}
		}
		buf = appendFrame(buf, rec.LSN, rec.Payload)
		l.lastLSN = rec.LSN
		buffered++
		applied++
	}
	if ferr := flush(); ferr != nil {
		// The buffered tail never reached the file: the log position must
		// not claim records a restart cannot replay.
		l.lastLSN -= uint64(buffered)
		applied -= buffered
		if runErr == nil {
			runErr = ferr
		}
	}
	if l.lastLSN == startLSN {
		return 0, runErr
	}
	if serr := l.syncPolicyLocked(l.lastLSN); serr != nil {
		return applied, serr
	}
	l.groupSize.Observe(int64(applied))
	return applied, runErr
}

// syncPolicyLocked issues the policy-appropriate sync covering every
// frame written so far: one call per run. Callers hold l.mu.
func (l *Log) syncPolicyLocked(lsn uint64) error {
	switch l.opts.Fsync {
	case FsyncAlways:
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: fsync lsn %d: %w", lsn, err)
		}
		l.syncCount++
		return l.syncDirLocked()
	case FsyncInterval:
		if time.Since(l.lastSync) >= l.opts.FsyncEvery {
			if err := l.seg.Sync(); err != nil {
				return fmt.Errorf("wal: fsync lsn %d: %w", lsn, err)
			}
			l.syncCount++
			l.lastSync = time.Now()
			return l.syncDirLocked()
		}
	}
	return nil
}

// rotateLocked closes the active segment and starts a new one whose
// first record will be lsn. Callers hold l.mu.
func (l *Log) rotateLocked(lsn uint64) error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			cerr := l.seg.Close()
			return errors.Join(fmt.Errorf("wal: syncing full segment: %w", err), cerr)
		}
		l.syncCount++
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: closing full segment: %w", err)
		}
		l.seg = nil
	}
	path := filepath.Join(l.dir, segName(lsn))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], lsn)
	if _, err := f.Write(hdr[:segHeaderSize]); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: writing segment header: %w", err), cerr)
	}
	l.seg = f
	l.segStart = lsn
	l.segSize = int64(segHeaderSize)
	// The new file's directory entry is not durable until the directory
	// itself is fsynced; the next data fsync flushes it (see
	// syncDirLocked), so an acknowledged record can never outlive its
	// segment's directory entry.
	l.dirDirty = true
	if l.firstLSN > lsn {
		l.firstLSN = lsn
	}
	return nil
}

// syncDir fsyncs a directory so just-created (or just-removed) entries
// survive power loss, mirroring recovery's checkpoint publication.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return errors.Join(fmt.Errorf("wal: syncing directory %s: %w", dir, serr), cerr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: closing directory %s: %w", dir, cerr)
	}
	return nil
}

// syncDirLocked flushes the log directory if a segment was created since
// the last directory sync. Called right after a successful data fsync:
// without it, power loss can drop a fully synced segment's directory
// entry, silently losing acknowledged records (or failing the next Open
// on LSN contiguity). Callers hold l.mu.
func (l *Log) syncDirLocked() error {
	if !l.dirDirty {
		return nil
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.dirDirty = false
	return nil
}

// Sync forces buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil || l.crashed {
		return nil
	}
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.syncCount++
	l.lastSync = time.Now()
	return l.syncDirLocked()
}

// Replay streams every retained record with LSN > after, in order. The
// payload slice passed to fn is only valid during the call. Replaying
// from below the retained floor returns ErrTrimmed: those records are
// gone and a checkpoint must cover them.
func (l *Log) Replay(after uint64, fn func(rec Record) error) error {
	l.mu.Lock()
	if l.crashed {
		l.mu.Unlock()
		return errCrashed
	}
	first, last := l.firstLSN, l.lastLSN
	dir := l.dir
	l.mu.Unlock()
	if after+1 < first {
		return fmt.Errorf("%w: need records after %d, floor is %d", ErrTrimmed, after, first)
	}
	if after >= last {
		return nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, start := range segs {
		// Skip segments entirely at or below the replay point.
		if i+1 < len(segs) && segs[i+1] <= after+1 {
			continue
		}
		f, err := os.Open(filepath.Join(dir, segName(start)))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		data, err := io.ReadAll(f)
		cerr := f.Close()
		if err != nil {
			return errors.Join(fmt.Errorf("wal: %w", err), cerr)
		}
		if cerr != nil {
			return cerr
		}
		if len(data) < segHeaderSize {
			continue
		}
		off := segHeaderSize
		want := start
		for {
			rec, n, ok := decodeFrame(data[off:], want)
			if !ok {
				break
			}
			off += n
			want = rec.LSN + 1
			if rec.LSN <= after {
				continue
			}
			if rec.LSN > last {
				return nil
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// TrimBelow deletes whole segments every record of which has LSN <= lsn.
// The active segment is never deleted. Trimming is how checkpoints bound
// the log: records at or below the checkpoint's high-water mark are
// re-derivable from the checkpoint and need not replay.
func (l *Log) TrimBelow(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return errCrashed
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i, start := range segs {
		// A segment's records end where the next segment starts.
		if start == l.segStart || i == len(segs)-1 {
			break
		}
		if segs[i+1]-1 > lsn {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(start))); err != nil {
			return fmt.Errorf("wal: trim: %w", err)
		}
		l.firstLSN = segs[i+1]
	}
	return nil
}

// TruncateTail durably discards every record with LSN above lsn — the
// inverse of TrimBelow: trimming drops a checkpoint-covered prefix,
// truncation drops an unwanted tail. It is the repair path for a replica
// whose newest record was never acknowledged by its coordinator (or
// diverged from its group after a lost-ack round): the record is removed
// so peer catch-up can resupply the group's true history. Truncating
// below the retained floor is an error.
func (l *Log) TruncateTail(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return errCrashed
	}
	if lsn >= l.lastLSN {
		return nil
	}
	if lsn+1 < l.firstLSN {
		return fmt.Errorf("wal: truncate to lsn %d below retained floor %d", lsn, l.firstLSN)
	}
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: truncate: closing active segment: %w", err)
		}
		l.seg = nil
		l.segStart, l.segSize = 0, 0
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	keep := uint64(0) // first LSN of the segment holding the new tail record
	for _, start := range segs {
		if start <= lsn {
			keep = start
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segName(start))); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	// The removals must be durable before the caller builds on them: a
	// deleted tail segment resurrected by power loss would bring a
	// discarded (possibly divergent) record back into the log.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.dirDirty = false
	if keep == 0 {
		// Every retained record was above lsn: the log is empty but stays
		// positioned — the next append starts a segment at lsn+1.
		l.lastLSN, l.firstLSN = lsn, lsn+1
		return nil
	}
	path := filepath.Join(l.dir, segName(keep))
	end, err := offsetOfRecord(path, keep, lsn)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: truncating %s: %w", path, err), cerr)
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: truncate sync: %w", err), cerr)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("wal: %w", err), cerr)
	}
	l.seg = f
	l.segStart = keep
	l.segSize = end
	l.lastLSN = lsn
	return nil
}

// offsetOfRecord scans a segment starting at LSN start and returns the
// byte offset just past record lsn.
func offsetOfRecord(path string, start, lsn uint64) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return 0, errors.Join(fmt.Errorf("wal: reading %s: %w", path, err), cerr)
	}
	if cerr != nil {
		return 0, cerr
	}
	if len(data) < segHeaderSize {
		return 0, fmt.Errorf("wal: %s: bad segment header", path)
	}
	off := int64(segHeaderSize)
	want := start
	for {
		rec, n, ok := decodeFrame(data[off:], want)
		if !ok {
			return 0, fmt.Errorf("wal: %s: record %d not found for truncation", path, lsn)
		}
		off += int64(n)
		if rec.LSN == lsn {
			return off, nil
		}
		want = rec.LSN + 1
	}
}

// Reset durably discards the entire retained log and repositions it at
// lsn: the next append gets lsn+1, and replaying after lsn yields
// nothing. Recovery uses it when a checkpoint is ahead of every durable
// log record (power loss under FsyncInterval/FsyncNever — checkpoints
// are always fsynced, log records may not be): the retained records are
// all baked into the checkpoint, and appending at the stale log position
// would reuse LSNs the restored state already contains. lsn must be at
// or above LastLSN.
func (l *Log) Reset(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return errCrashed
	}
	if lsn < l.lastLSN {
		return fmt.Errorf("wal: reset to lsn %d behind last lsn %d", lsn, l.lastLSN)
	}
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: reset: closing active segment: %w", err)
		}
		l.seg = nil
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, start := range segs {
		if err := os.Remove(filepath.Join(l.dir, segName(start))); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	// Durable removals: a resurrected old segment would sit below the new
	// position as a non-contiguous prefix and fail the next Open.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.dirDirty = false
	l.segStart, l.segSize = 0, 0
	l.lastLSN, l.firstLSN = lsn, lsn+1
	return nil
}

// Close syncs and closes the active segment. The sync error, if any, is
// the caller's last chance to learn buffered records never hit disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg == nil || l.crashed {
		return nil
	}
	var errs []error
	if err := l.seg.Sync(); err != nil {
		errs = append(errs, fmt.Errorf("wal: close sync: %w", err))
	} else {
		l.syncCount++
		if err := l.syncDirLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.seg.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wal: close: %w", err))
	}
	l.seg = nil
	return errors.Join(errs...)
}

// Crash abandons the log without syncing — the in-process stand-in for
// kill -9 in crash tests. Whatever the OS already holds stays on disk;
// nothing more is flushed, and the Log refuses further use.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seg != nil {
		_ = l.seg.Close() // no sync on purpose; the error is part of the crash
		l.seg = nil
	}
	l.crashed = true
}
