package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"parcube"
	"parcube/internal/agg"
	"parcube/internal/nd"
	"parcube/internal/obs"
	"parcube/internal/recovery"
	"parcube/internal/server"
	"parcube/internal/wal"
)

// DurableOptions configures a shard node's persistence.
type DurableOptions struct {
	// DataDir is the node's data directory: checkpoints at the top level,
	// the write-ahead log under "wal/". Created if missing.
	DataDir string
	// Fsync selects when WAL appends reach stable storage. The default,
	// wal.FsyncAlways, makes every acknowledged delta survive kill -9.
	Fsync wal.FsyncPolicy
	// FsyncEvery is the sync interval under wal.FsyncInterval.
	FsyncEvery time.Duration
	// CheckpointEvery writes a checkpoint after that many ingested
	// deltas; 0 disables auto-checkpointing.
	CheckpointEvery int
	// RetainRecords keeps at least this many newest WAL records across
	// checkpoint trims, so lagging replicas can catch up from this
	// node's log. Default 4096.
	RetainRecords uint64
	// GroupCommit is accepted and ignored. Batching lives in the
	// coordinator's per-group ingest queue, which ships concurrent
	// deltas as one DELTABATCH per replica — one log write and one fsync
	// per run; the WAL has no queue of its own to switch on. The field
	// survives only because benchmark/stack.go, which may not be edited,
	// sets it.
	GroupCommit bool
	// Op restates the cube's aggregation operator for dataset-free
	// restarts (StartDurableNode with a nil dataset): checkpoints are
	// opaque and do not embed it. Ignored when a dataset is given. The
	// zero value is parcube.Sum, the library default.
	Op parcube.Aggregator
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.RetainRecords == 0 {
		o.RetainRecords = 4096
	}
	return o
}

// durableBackend serves a block sub-cube that accepts deltas and
// persists them: apply-then-log, so a delta the cube rejects (schema
// mismatch, out-of-block coordinates, parcube.ErrOverlappingDelta) is
// never written to the WAL and replay of a logged record can never
// fail. The cube is guarded by an RWMutex and every query copies its
// result (server.TableOf) before the lock is released: a Result is never
// modified once returned, and the cube's live arrays change under the
// next delta.
type durableBackend struct {
	schema *parcube.Schema
	op     parcube.Aggregator
	block  nd.Block

	mu   sync.RWMutex
	cube *parcube.Cube
	mgr  *recovery.Manager
	// poisoned, once set, rejects every further delta, truncation, and
	// checkpoint until restart. It marks a cube/log divergence this
	// process cannot repair: a delta was applied to the live cube but its
	// WAL append failed, so acking anything on top would acknowledge
	// state a restart cannot reconstruct. Reads stay up (the cube is
	// still internally consistent), and a restart rebuilds cleanly from
	// checkpoint + log, which by construction lack the orphan mutation.
	poisoned error
}

// encodeRows renders delta rows as a WAL record payload: one
// "c0,c1,... value" line per cell, mirroring the wire format.
func encodeRows(rows []server.Row) []byte {
	var b bytes.Buffer
	for _, row := range rows {
		parts := make([]string, len(row.Coords))
		for i, c := range row.Coords {
			parts[i] = strconv.Itoa(c)
		}
		fmt.Fprintf(&b, "%s %g\n", strings.Join(parts, ","), row.Value)
	}
	return b.Bytes()
}

// decodeRows parses a WAL record payload back into delta rows.
func decodeRows(payload []byte) ([]server.Row, error) {
	var rows []server.Row
	for _, line := range strings.Split(strings.TrimSpace(string(payload)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("shard: malformed logged delta row %q", line)
		}
		var coords []int
		for _, p := range strings.Split(fields[0], ",") {
			c, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("shard: malformed logged coords %q", fields[0])
			}
			coords = append(coords, c)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("shard: malformed logged value %q", fields[1])
		}
		rows = append(rows, server.Row{Coords: coords, Value: v})
	}
	return rows, nil
}

// rowsToDataset validates delta rows against the schema and block and
// builds the dataset to apply. Global coordinates, like every shard
// query path.
func (b *durableBackend) rowsToDataset(rows []server.Row) (*parcube.Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("shard: empty delta")
	}
	ds := parcube.NewDataset(b.schema)
	rank := b.schema.Dims()
	for _, row := range rows {
		if len(row.Coords) != rank {
			return nil, fmt.Errorf("shard: delta row has %d coordinates, schema has %d dimensions", len(row.Coords), rank)
		}
		for i, c := range row.Coords {
			if c < b.block.Lo[i] || c >= b.block.Hi[i] {
				return nil, fmt.Errorf("shard: delta coordinate %v outside served block %s", row.Coords, b.block)
			}
		}
		if err := ds.Add(row.Value, row.Coords...); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// Delta implements server.DeltaBackend: a delta is a batch of one.
func (b *durableBackend) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	last, applied, err := b.DeltaBatch([]server.LoggedDelta{{LSN: lsn, Rows: rows}})
	if err != nil {
		return 0, false, err
	}
	return last, applied == 1, nil
}

// DeltaBatch implements server.DeltaBatchBackend, the node's one ingest
// path (DELTA and Delta arrive here as runs of one): validate, apply to
// the live cube, then append to the WAL — ONE write + fsync covering
// every record the run applied — and only then acknowledge. Per-record
// LSN discipline: 0 assigns the next position, at-or-below the log
// skips idempotently, a gap rejects. The first rejected record stops
// the run after durably logging the applied prefix, so the
// coordinator's ERR reply never races records already acknowledged into
// the group history.
//
//cubelint:ignore lock-order b.mu orders log-then-apply for the whole batch; the group fsync under it is the atomicity guarantee
func (b *durableBackend) DeltaBatch(recs []server.LoggedDelta) (uint64, int, error) {
	if len(recs) == 0 {
		return 0, 0, fmt.Errorf("shard: empty delta batch")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned != nil {
		return 0, 0, b.poisoned
	}
	last := b.mgr.LastLSN()
	var (
		toLog    []wal.Record
		batchErr error
	)
	for i, rec := range recs {
		lsn := rec.LSN
		switch {
		case lsn == 0:
			lsn = last + 1
		case lsn <= last:
			continue // idempotent redelivery
		case lsn > last+1:
			batchErr = fmt.Errorf("shard: batch record %d: delta LSN %d leaves a gap after %d", i, lsn, last)
		}
		if batchErr != nil {
			break
		}
		ds, err := b.rowsToDataset(rec.Rows)
		if err != nil {
			batchErr = fmt.Errorf("shard: batch record %d: %w", i, err)
			break
		}
		if _, err := b.cube.Update(ds); err != nil {
			// Rejected records — parcube.ErrOverlappingDelta above all —
			// are never logged (apply-then-log), which is what keeps WAL
			// replay infallible; the already-applied prefix is logged
			// below before the rejection reaches the client.
			batchErr = fmt.Errorf("shard: batch record %d: %w", i, err)
			break
		}
		toLog = append(toLog, wal.Record{LSN: lsn, Payload: encodeRows(rec.Rows)})
		last = lsn
	}
	applied := 0
	if len(toLog) > 0 {
		n, err := b.mgr.AppendBatchAt(toLog)
		applied = n
		if err != nil {
			// The cube now holds mutations the log does not. The client never
			// sees an ack for them — but any later acked delta would be
			// computed over (and, for overlap checks, fenced by) the
			// unlogged ones, and a restart would replay to a state missing
			// them. Poison the backend: no further delta is acked until a
			// restart rebuilds from durable state alone.
			b.poisoned = fmt.Errorf("shard: deltas applied but not logged (%d of %d records reached the log): %w", n, len(toLog), err)
			return 0, applied, b.poisoned
		}
	}
	return b.mgr.LastLSN(), applied, batchErr
}

// TruncateTail implements server.TruncateBackend: durably discard every
// logged record above lsn and rebuild the cube from the newest
// checkpoint plus the surviving log. The coordinator invokes it during
// rejoin when this node's newest record was never acknowledged by the
// group (a lost-ack round left it holding an orphan, possibly divergent,
// delta); afterwards normal catch-up resupplies the group's history.
//
//cubelint:ignore lock-order tail truncation rewrites the log and must exclude deltas; its fsync runs under b.mu by design
func (b *durableBackend) TruncateTail(lsn uint64) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned != nil {
		return 0, b.poisoned
	}
	if err := b.mgr.Rebuild(lsn); err != nil {
		if errors.Is(err, recovery.ErrBelowCheckpoint) {
			// Nothing was mutated: the target predates the newest
			// checkpoint and the Manager refused up front.
			return 0, err
		}
		// A failed rebuild can leave the cube and log mismatched
		// (truncated log, stale cube). Stop acking until restart.
		b.poisoned = fmt.Errorf("shard: truncate to LSN %d failed: %w", lsn, err)
		return 0, b.poisoned
	}
	return b.mgr.LastLSN(), nil
}

// ExportCheckpoint implements server.CheckpointBackend: publish a fresh
// checkpoint of the live cube and hand out its bytes — the donor side
// of a migration transfer.
//
//cubelint:ignore lock-order the exported snapshot must exclude deltas, so its fsync runs under b.mu by design, same as Checkpoint
func (b *durableBackend) ExportCheckpoint() (uint64, []byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned != nil {
		// Exporting now would ship the unlogged mutation to a new node.
		return 0, nil, b.poisoned
	}
	return b.mgr.ExportCheckpoint()
}

// ImportCheckpoint implements server.CheckpointBackend: adopt shipped
// state as this node's durable base. Only an empty node accepts (the
// recovery manager enforces it). The shipped state may cover a LARGER
// block than this node serves — a split child importing its parent's
// checkpoint — so the cube is rebuilt from the state's fact table
// restricted to the served block; for a same-block replica add the
// restriction passes everything through.
//
//cubelint:ignore lock-order adoption replaces the durable base wholesale and must exclude deltas; its fsyncs run under b.mu by design
func (b *durableBackend) ImportCheckpoint(lsn uint64, state []byte) error {
	cube, err := parcube.ReadCubeStateBlock(bytes.NewReader(state), b.schema, b.op, b.block.Lo, b.block.Hi)
	if err != nil {
		return fmt.Errorf("shard: decoding shipped checkpoint: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned != nil {
		return b.poisoned
	}
	prev := b.cube
	b.cube = cube
	if err := b.mgr.Adopt(lsn); err != nil {
		b.cube = prev
		return err
	}
	return nil
}

// DeltasSince implements server.WALTailBackend by decoding the log tail.
func (b *durableBackend) DeltasSince(lsn uint64) ([]server.LoggedDelta, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []server.LoggedDelta
	err := b.mgr.Replay(lsn, func(rec wal.Record) error {
		rows, err := decodeRows(rec.Payload)
		if err != nil {
			return err
		}
		out = append(out, server.LoggedDelta{LSN: rec.LSN, Rows: rows})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LastLSN implements server.WALTailBackend.
func (b *durableBackend) LastLSN() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.mgr.LastLSN()
}

func (b *durableBackend) SchemaDims() ([]string, []int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.schema.Names(), b.schema.Sizes()
}

func (b *durableBackend) Total() (float64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.cube.Total(), nil
}

func (b *durableBackend) GroupBy(dims ...string) (server.Result, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	tbl, err := b.cube.GroupBy(dims...)
	if err != nil {
		return nil, err
	}
	return server.TableOf(tbl), nil
}

func (b *durableBackend) Query(stmt string) (server.Result, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	tbl, err := b.cube.Query(stmt)
	if err != nil {
		return nil, err
	}
	return server.TableOf(tbl), nil
}

// StartDurableNode starts (or restarts) shard node id backed by a data
// directory. With a dataset the base cube is built from the node's block
// of ds; when the directory already holds a checkpoint, the restored
// state replaces that base and only the WAL tail past the checkpoint is
// replayed. With a nil dataset the node restarts from the directory
// alone — the schema comes from the plan, the operator from
// DurableOptions.Op, and a directory without a valid checkpoint is an
// error. A fresh directory gets an initial checkpoint immediately, so
// later restarts never depend on replaying history from LSN 1.
func StartDurableNode(plan *Plan, id int, ds *parcube.Dataset, addr string, dopts DurableOptions, opts ...parcube.BuildOption) (*Node, error) {
	dopts = dopts.withDefaults()
	if dopts.DataDir == "" {
		return nil, fmt.Errorf("shard: node %d: DurableOptions.DataDir is required", id)
	}
	hadCheckpoint := recovery.HasCheckpoint(dopts.DataDir)
	block, err := plan.BlockOfNode(id)
	if err != nil {
		return nil, err
	}
	var (
		cube *parcube.Cube
		op   parcube.Aggregator
	)
	if ds != nil {
		sub, err := ds.Shard(block.Lo, block.Hi)
		if err != nil {
			return nil, fmt.Errorf("shard: node %d: %w", id, err)
		}
		cube, _, err = parcube.Build(sub, opts...)
		if err != nil {
			return nil, fmt.Errorf("shard: node %d build: %w", id, err)
		}
		op = cube.Aggregator()
	} else {
		if !hadCheckpoint {
			return nil, fmt.Errorf("shard: node %d: no dataset and no checkpoint in %s", id, dopts.DataDir)
		}
		op = dopts.Op
	}

	if _, err := agg.Parse(op.String()); err != nil {
		return nil, fmt.Errorf("shard: node %d: %w", id, err)
	}
	var schema *parcube.Schema
	if cube != nil {
		schema = cube.Schema()
	} else if schema, err = plan.Schema(); err != nil {
		return nil, fmt.Errorf("shard: node %d: %w", id, err)
	}
	backend := &durableBackend{
		schema: schema,
		op:     op,
		block:  block,
		cube:   cube,
	}
	metrics := obs.NewRegistry()
	mgr, err := recovery.Open(recovery.Options{
		Dir:             dopts.DataDir,
		WAL:             wal.Options{Fsync: dopts.Fsync, FsyncEvery: dopts.FsyncEvery},
		CheckpointEvery: dopts.CheckpointEvery,
		RetainRecords:   dopts.RetainRecords,
		Metrics:         metrics,
	},
		func(r io.Reader, lsn uint64) error {
			restored, err := parcube.ReadCubeState(r, backend.schema, backend.op)
			if err != nil {
				return err
			}
			backend.cube = restored
			return nil
		},
		func(lsn uint64, payload []byte) error {
			rows, err := decodeRows(payload)
			if err != nil {
				return err
			}
			rds, err := backend.rowsToDataset(rows)
			if err != nil {
				return err
			}
			_, err = backend.cube.Update(rds)
			return err
		},
		func(w io.Writer) error { return backend.cube.WriteState(w) },
	)
	if err != nil {
		return nil, fmt.Errorf("shard: node %d recovery: %w", id, err)
	}
	backend.mgr = mgr
	// Only a directory that had no checkpoint at all gets the initial one.
	// Gating on CheckpointLSN() == 0 would also fire on a restart whose
	// newest checkpoint is the initial LSN-0 snapshot — and that restart
	// checkpoint, stamped with the recovered LastLSN, would bake an
	// unacked (possibly divergent) tail record into durable state before
	// the coordinator's rejoin reconciliation could truncate it away.
	if !hadCheckpoint {
		if err := mgr.Checkpoint(); err != nil {
			cerr := mgr.Close()
			return nil, errors.Join(fmt.Errorf("shard: node %d initial checkpoint: %w", id, err), cerr)
		}
	}

	n := &Node{
		ID:      id,
		Block:   block,
		Cube:    backend.cube,
		durable: backend,
		rec:     metrics,
		srv:     server.NewBackend(backend),
	}
	n.srv.SetShardInfo(server.ShardInfo{
		ID:    id,
		Op:    backend.op.String(),
		Block: block.String(),
		Epoch: plan.Epoch,
	})
	bound, err := n.srv.Listen(addr)
	if err != nil {
		cerr := mgr.Close()
		return nil, errors.Join(fmt.Errorf("shard: node %d listen: %w", id, err), cerr)
	}
	n.addr = bound
	return n, nil
}

// LastLSN returns a durable node's newest acknowledged-delta LSN (0 for
// in-memory nodes).
func (n *Node) LastLSN() uint64 {
	if n.durable == nil {
		return 0
	}
	return n.durable.LastLSN()
}

// Checkpoint forces a durable node to checkpoint now.
//
//cubelint:ignore lock-order the checkpoint snapshot must exclude deltas, so its fsync runs under the backend lock by design
func (n *Node) Checkpoint() error {
	if n.durable == nil {
		return fmt.Errorf("shard: node %d has no data directory", n.ID)
	}
	n.durable.mu.Lock()
	defer n.durable.mu.Unlock()
	if n.durable.poisoned != nil {
		// A checkpoint taken now would bake the unlogged mutation into a
		// snapshot stamped with a lower LSN, making the divergence durable.
		return n.durable.poisoned
	}
	return n.durable.mgr.Checkpoint()
}

// RecoveryMetrics returns a durable node's recovery registry (replayed
// records, replay/checkpoint latency, log lag); nil for in-memory nodes.
func (n *Node) RecoveryMetrics() *obs.Registry { return n.rec }

// Crash simulates kill -9: the listener and every connection drop, and
// nothing buffered is flushed to the data directory. Only deltas the
// fsync policy already persisted survive a subsequent StartDurableNode.
func (n *Node) Crash() {
	_ = n.srv.Close()
	if n.durable != nil {
		n.durable.mu.Lock()
		n.durable.mgr.Crash()
		n.durable.mu.Unlock()
	}
}
