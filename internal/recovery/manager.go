package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parcube/internal/obs"
	"parcube/internal/wal"
)

// Options configures a Manager.
type Options struct {
	// Dir is the data directory. Checkpoints live directly in it, the WAL
	// in a "wal" subdirectory. Created if missing.
	Dir string
	// WAL configures the underlying log (fsync policy, segment size).
	WAL wal.Options
	// CheckpointEvery triggers an automatic checkpoint after that many
	// appended records; 0 disables auto-checkpointing (explicit
	// Checkpoint calls only).
	CheckpointEvery int
	// RetainRecords keeps at least this many newest log records across
	// checkpoint trims, so a lagging replica can still be caught up from
	// this node's log instead of a full state transfer.
	RetainRecords uint64
	// Metrics receives recovery series; nil means a private registry.
	Metrics *obs.Registry
}

// Manager binds a WAL and checkpoint files under one data directory into
// a durable record store: Append persists a record before the caller
// acks it, Checkpoint captures the full state and trims the log, and
// Open replays exactly the acknowledged records a restarted process is
// missing. The Manager does not interpret payloads — the owner supplies
// restore/apply/snapshot callbacks, which keeps the package usable for
// any state machine even though the shard cube is the one it was built
// for.
type Manager struct {
	dir  string
	opts Options

	mu        sync.Mutex
	log       *wal.Log
	restore   func(r io.Reader, lsn uint64) error
	apply     func(lsn uint64, payload []byte) error
	snap      func(w io.Writer) error
	ckptLSN   uint64 // LSN of the newest published checkpoint
	sinceCkpt int    // records appended since that checkpoint
	closed    bool

	replayed    *obs.Counter
	replayNs    *obs.Histogram
	ckptCount   *obs.Counter
	ckptBytes   *obs.Counter
	ckptNs      *obs.Histogram
	ckptSkipped *obs.Counter
	logLag      *obs.Gauge
}

// Open restores the newest valid checkpoint (if any) through restore,
// then replays every log record past it through apply, in LSN order.
// restore is not called when the directory holds no valid checkpoint —
// the caller's zero/freshly-built state is the base then. snap is held
// for later checkpoints; it must serialize a state consistent with every
// record the Manager has been handed (callers achieve this by invoking
// Append under the same lock that guards their state).
func Open(opts Options, restore func(r io.Reader, lsn uint64) error, apply func(lsn uint64, payload []byte) error, snap func(w io.Writer) error) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("recovery: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.WAL.Metrics == nil {
		// The log's series (wal.group_size) land in the same registry as
		// the recovery series unless the caller routed them elsewhere.
		opts.WAL.Metrics = reg
	}
	m := &Manager{
		dir:         opts.Dir,
		opts:        opts,
		restore:     restore,
		apply:       apply,
		snap:        snap,
		replayed:    reg.Counter("recovery.replayed_records"),
		replayNs:    reg.Histogram("recovery.replay_ns"),
		ckptCount:   reg.Counter("recovery.checkpoints"),
		ckptBytes:   reg.Counter("recovery.checkpoint_bytes"),
		ckptNs:      reg.Histogram("recovery.checkpoint_ns"),
		ckptSkipped: reg.Counter("recovery.checkpoints_skipped"),
		logLag:      reg.Gauge("recovery.log_lag_records"),
	}

	start := time.Now()
	lsn, state, skipped, err := latestValidCheckpoint(opts.Dir)
	if err != nil {
		return nil, err
	}
	m.ckptSkipped.Add(int64(skipped))
	if state != nil {
		if err := restore(bytes.NewReader(state), lsn); err != nil {
			return nil, fmt.Errorf("recovery: restoring checkpoint at LSN %d: %w", lsn, err)
		}
		m.ckptLSN = lsn
	}

	log, err := wal.Open(filepath.Join(opts.Dir, "wal"), opts.WAL)
	if err != nil {
		return nil, err
	}
	if lsn > log.LastLSN() {
		// Checkpoints are always fsynced; log records are only as durable
		// as the fsync policy. After power loss under FsyncInterval/Never
		// the checkpoint can be ahead of every surviving log record. All
		// those records are baked into the restored state, so fast-forward
		// the log to the checkpoint — otherwise new appends would reuse
		// LSNs the state already contains, and idempotency checks keyed on
		// LastLSN would wrongly re-admit them.
		if err := log.Reset(lsn); err != nil {
			cerr := log.Close()
			return nil, errors.Join(fmt.Errorf("recovery: fast-forwarding log to checkpoint LSN %d: %w", lsn, err), cerr)
		}
	}
	replayed := int64(0)
	replayErr := log.Replay(lsn, func(rec wal.Record) error {
		replayed++
		return apply(rec.LSN, rec.Payload)
	})
	if replayErr != nil {
		if cerr := log.Close(); cerr != nil {
			return nil, errors.Join(replayErr, cerr)
		}
		return nil, fmt.Errorf("recovery: replaying log after LSN %d: %w", lsn, replayErr)
	}
	m.log = log
	m.sinceCkpt = int(replayed)
	m.replayed.Add(replayed)
	m.replayNs.ObserveSince(start)
	m.logLag.Set(int64(log.LastLSN() - m.ckptLSN))
	return m, nil
}

// Append durably logs one record and returns its LSN. When the call
// returns nil the record survives a crash (subject to the configured
// fsync policy). Auto-checkpointing runs inline when CheckpointEvery is
// reached; a failed auto-checkpoint does not fail the append — the
// record is durable regardless — but is reported so operators see it.
//
//cubelint:ignore lock-order m.mu serializes the durability path by design: the fsync must complete before the next append is admitted
func (m *Manager) Append(payload []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, errors.New("recovery: manager is closed")
	}
	lsn, err := m.log.Append(payload)
	if err != nil {
		return 0, err
	}
	m.noteAppendLocked(1)
	return lsn, nil
}

// AppendBatchAt durably logs a run of records at explicit consecutive
// LSNs with one buffered write and one fsync (per policy) — the
// lockstep ingest path, runs of one included. Records at or below the
// log position are skipped (idempotent redelivery), a gap fails the
// batch from that record on while the already-written prefix stays
// durable. applied counts the records written this call.
//
//cubelint:ignore lock-order m.mu serializes the durability path by design; the batch fsync under it is the ordering guarantee
func (m *Manager) AppendBatchAt(recs []wal.Record) (applied int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, errors.New("recovery: manager is closed")
	}
	applied, err = m.log.AppendBatchAt(recs)
	if applied > 0 {
		m.noteAppendLocked(applied)
	}
	return applied, err
}

// noteAppendLocked updates lag accounting and fires the auto-checkpoint.
func (m *Manager) noteAppendLocked(n int) {
	m.sinceCkpt += n
	m.logLag.Set(int64(m.log.LastLSN() - m.ckptLSN))
	if m.opts.CheckpointEvery > 0 && m.sinceCkpt >= m.opts.CheckpointEvery {
		// Best effort: the appended record is already durable in the log,
		// so a checkpoint failure costs replay time, not data.
		_ = m.checkpointLocked()
	}
}

// Checkpoint captures the current state through the snapshot callback,
// publishes it atomically, and trims log segments the checkpoint covers.
//
//cubelint:ignore lock-order checkpoints must exclude appends, so the snapshot fsync runs under m.mu by design
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("recovery: manager is closed")
	}
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() error {
	start := time.Now()
	lsn := m.log.LastLSN()
	n, err := writeCheckpoint(m.dir, lsn, m.snap)
	if err != nil {
		return err
	}
	m.ckptLSN = lsn
	m.sinceCkpt = 0
	m.ckptCount.Inc()
	m.ckptBytes.Add(n)
	m.ckptNs.ObserveSince(start)
	m.logLag.Set(int64(m.log.LastLSN() - m.ckptLSN))

	// Drop checkpoints older than the one just published, then log
	// segments it covers — minus the retention window kept for replica
	// catch-up.
	lsns, err := listCheckpoints(m.dir)
	if err != nil {
		return err
	}
	for _, old := range lsns {
		if old < lsn {
			if err := os.Remove(filepath.Join(m.dir, ckptName(old))); err != nil {
				return fmt.Errorf("recovery: pruning old checkpoint: %w", err)
			}
		}
	}
	trimTo := lsn
	if trimTo > m.opts.RetainRecords {
		trimTo -= m.opts.RetainRecords
	} else {
		trimTo = 0
	}
	return m.log.TrimBelow(trimTo)
}

// ExportCheckpoint publishes a fresh checkpoint at the current log
// position and returns its LSN and raw state bytes — the payload a
// migration ships to a joining node (SHIPCKPT). Exporting through the
// checkpoint path (rather than calling snap directly) means the bytes
// handed out are exactly a CRC-verified durable artifact: whatever a
// restart of this node would restore, the new node starts from.
//
//cubelint:ignore lock-order the snapshot fsync must exclude appends, so it runs under m.mu by design, same as Checkpoint
func (m *Manager) ExportCheckpoint() (uint64, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, nil, errors.New("recovery: manager is closed")
	}
	if err := m.checkpointLocked(); err != nil {
		return 0, nil, err
	}
	lsn, state, skipped, err := latestValidCheckpoint(m.dir)
	m.ckptSkipped.Add(int64(skipped))
	if err != nil {
		return 0, nil, err
	}
	if state == nil && lsn != m.ckptLSN {
		return 0, nil, errors.New("recovery: checkpoint vanished between publish and export")
	}
	return lsn, state, nil
}

// Adopt makes a shipped remote checkpoint this node's durable base: the
// node must be empty (no log records, no checkpoint of its own), its
// log is fast-forwarded to lsn so lockstep appends continue the donor's
// LSN sequence, and a checkpoint of the owner's current state — which
// the owner restored from the shipped bytes before calling — is
// published at that position. After Adopt, a crash restores exactly the
// adopted state plus whatever catch-up records landed after it.
//
//cubelint:ignore lock-order adopt replaces the durable base wholesale and must exclude appends; its fsyncs run under m.mu by design
func (m *Manager) Adopt(lsn uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("recovery: manager is closed")
	}
	if m.log.LastLSN() != 0 || m.ckptLSN != 0 {
		return fmt.Errorf("recovery: adopt requires an empty node (log at %d, checkpoint at %d)",
			m.log.LastLSN(), m.ckptLSN)
	}
	if err := m.log.Reset(lsn); err != nil {
		return fmt.Errorf("recovery: fast-forwarding log to adopted LSN %d: %w", lsn, err)
	}
	return m.checkpointLocked()
}

// ErrBelowCheckpoint reports a Rebuild target below the newest
// checkpoint: the records past the target are already baked into every
// retained snapshot, so the Manager cannot reconstruct the older state.
var ErrBelowCheckpoint = errors.New("recovery: rebuild target below newest checkpoint")

// Rebuild durably discards every log record with LSN above lsn and
// reconstructs the owner's state without them: the newest checkpoint is
// restored and the surviving log replayed on top, through the same
// callbacks Open uses. It is the repair path for a replica whose log
// tail diverged from its group (a write was applied locally but never
// acknowledged); the coordinator truncates the orphan record and then
// re-feeds the group's true history. A target at or past LastLSN is a
// no-op; a target below the newest checkpoint fails with
// ErrBelowCheckpoint.
//
//cubelint:ignore lock-order rebuild replaces the log wholesale and must exclude appends; its fsyncs run under m.mu by design
func (m *Manager) Rebuild(lsn uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("recovery: manager is closed")
	}
	if lsn >= m.log.LastLSN() {
		return nil
	}
	if lsn < m.ckptLSN {
		return ErrBelowCheckpoint
	}
	if err := m.log.TruncateTail(lsn); err != nil {
		return err
	}
	ckLSN, state, skipped, err := latestValidCheckpoint(m.dir)
	if err != nil {
		return err
	}
	m.ckptSkipped.Add(int64(skipped))
	if state == nil {
		// Without a snapshot there is no base to rebuild from: the
		// truncated record's mutation is already in the live state and
		// replaying the whole log would double-apply everything else.
		return errors.New("recovery: rebuild requires a checkpoint")
	}
	if err := m.restore(bytes.NewReader(state), ckLSN); err != nil {
		return fmt.Errorf("recovery: restoring checkpoint at LSN %d: %w", ckLSN, err)
	}
	replayed := int64(0)
	if err := m.log.Replay(ckLSN, func(rec wal.Record) error {
		replayed++
		return m.apply(rec.LSN, rec.Payload)
	}); err != nil {
		return fmt.Errorf("recovery: replaying log after LSN %d: %w", ckLSN, err)
	}
	m.ckptLSN = ckLSN
	m.sinceCkpt = int(replayed)
	m.replayed.Add(replayed)
	m.logLag.Set(int64(m.log.LastLSN() - m.ckptLSN))
	return nil
}

// Replay streams log records with LSN > after, oldest first. It reports
// wal.ErrTrimmed when the requested point predates the retained log.
func (m *Manager) Replay(after uint64, fn func(rec wal.Record) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("recovery: manager is closed")
	}
	return m.log.Replay(after, fn)
}

// LastLSN returns the newest durable record's LSN (0 when empty).
func (m *Manager) LastLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return 0
	}
	return m.log.LastLSN()
}

// CheckpointLSN returns the newest published checkpoint's LSN.
func (m *Manager) CheckpointLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ckptLSN
}

// Close flushes and closes the log. The Manager is unusable afterwards.
//
//cubelint:ignore lock-order the final fsync on close runs under m.mu so no append can race the shutdown
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.log.Close()
}

// Crash abandons the manager without flushing — the kill -9 simulation
// for tests. Only bytes the fsync policy already persisted survive.
func (m *Manager) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.log.Crash()
}
