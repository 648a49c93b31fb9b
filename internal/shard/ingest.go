package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"parcube/internal/server"
)

// This file is the coordinator's write path and rejoin protocol.
//
// Ingest keeps a block's replicas in lockstep: every replica of a block
// logs the same delta under the same LSN, assigned by the coordinator
// under the group's writeMu. A replica that fails a write (transport
// error, not an application rejection) is marked down — out of the
// scatter-gather read set — and a background loop later re-admits it:
// probe its SHARDINFO for the recovered WAL position, reconcile its log
// tail with the group (below), stream the missed records from a live
// peer with DELTASINCE, replay them onto the rejoiner as DELTABATCH runs
// at their LSNs (idempotent, so repeats are harmless), and only when the
// replica has
// caught up to the group's high-water mark under writeMu does it return
// to the read set.
//
// Tail reconciliation exists because a lost ack can leave a down
// replica's log DIVERGENT, not merely behind: the replica applies and
// logs delta D1 at LSN N, the ack never arrives, and with no other acker
// that round lastLSN stays at N-1 — so the next (different) delta D2 is
// assigned the same LSN N on the live replicas. Matching log positions
// then no longer imply matching content. The invariant that makes repair
// cheap is that divergence can only live in a contiguous SUFFIX of the
// replica's log: a down replica receives no lockstep writes, every
// earlier record was either acked by it or copied from a peer, and
// catch-up only appends. A lost single-delta ack leaves at most one
// divergent record; a lost ack for a longer run leaves up to the whole
// run, but still only as the newest records — the run was logged in
// one go and nothing landed after it. So before any catch-up, rejoin
// classifies the tail: records above the group's high-water mark were
// never acknowledged to any client and are truncated outright; a tail
// AT a group-assigned position is trusted only if this replica is a
// known tail acker, and otherwise its content is reconciled against a
// live peer — walking down from the replica's newest record to the
// highest position whose content the peer confirms, and truncating
// everything above it (TRUNCATE rebuilds the replica's state from
// checkpoint + surviving log) so catch-up resupplies the group's true
// history. When no live peer exists to compare against, or a divergent
// record is already baked into the replica's newest checkpoint
// (TRUNCATE answers ERR with recovery's ErrBelowCheckpoint), the
// replica stays down rather than risk readmitting divergent state.
//
// Ingest itself group-commits, and this queue is the system's only
// batching point: concurrent deltas for the same block queue behind a
// leader (the first arrival; leadership hands off to the head of the
// queue after every round), and the leader ships the whole run — a lone
// delta is a run of one — to each replica as ONE DELTABATCH: one round
// trip, one log write and one fsync per replica per round, with the
// dense per-group LSNs one-at-a-time ingest would have assigned.

// Delta applies one delta through the cluster: rows are validated
// against the schema, split by owning block, and each involved block
// group logs them in replica lockstep. It implements
// server.DeltaBackend, so a coordinator served by server.NewBackend
// accepts the DELTA command directly.
//
// The coordinator assigns LSNs itself (per block group); clients must
// send lsn 0. The returned LSN is the largest assigned across the
// involved blocks. A delta spanning several blocks is applied per block
// independently — if one block fails mid-way the others keep the delta,
// so callers wanting atomic retries should batch per block.
func (c *Coordinator) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	if lsn != 0 {
		return 0, false, fmt.Errorf("shard: the coordinator assigns LSNs; retry without lsn")
	}
	maxLSN, err := c.ingestRows(rows, 0)
	if err != nil {
		return 0, false, err
	}
	c.stats.deltas.Inc()
	c.stats.deltaCells.Add(int64(len(rows)))
	return maxLSN, true, nil
}

// errGroupRetired is the typed refusal a split cutover leaves behind: a
// writer that routed rows against a topology snapshot the cutover has
// since replaced re-splits them against the fresh topology and retries.
// The cutover drained the parent's tail into the children before
// retiring it, so the retried rows land exactly once.
var errGroupRetired = errors.New("shard: block group retired by a split cutover")

// maxRetiredRetries bounds how many topology swaps one delta will chase.
// Each retry needs a fresh split cutover of the very group the rows
// landed in, so the bound is never reached outside pathological churn.
const maxRetiredRetries = 4

// ingestRows splits rows by owning block against the current topology
// and commits each part to its group in replica lockstep. A part
// refused with errGroupRetired lost a race with a split cutover and is
// re-routed against the then-current topology.
func (c *Coordinator) ingestRows(rows []server.Row, depth int) (uint64, error) {
	if depth > maxRetiredRetries {
		return 0, fmt.Errorf("shard: delta re-routed through %d topology changes without landing", depth)
	}
	groups := c.groups()
	perBlock, err := c.splitByBlock(groups, rows)
	if err != nil {
		return 0, err
	}

	var (
		mu     sync.Mutex
		maxLSN uint64
		errs   []error
		wg     sync.WaitGroup
	)
	for b, part := range perBlock {
		wg.Add(1)
		go func(g *blockGroup, part []server.Row) {
			defer wg.Done()
			blockLSN, err := c.ingestGroup(g, part)
			if errors.Is(err, errGroupRetired) {
				blockLSN, err = c.ingestRows(part, depth+1)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("block %s: %w", g.block, err))
				return
			}
			if blockLSN > maxLSN {
				maxLSN = blockLSN
			}
		}(groups[b], part)
	}
	wg.Wait()
	if len(errs) > 0 {
		return 0, errors.Join(errs...)
	}
	return maxLSN, nil
}

// DeltaBatch applies a run of deltas through the cluster in one call.
// It implements server.DeltaBatchBackend, so a coordinator served by
// server.NewBackend accepts DELTABATCH directly. Every record must come
// with lsn 0 (the coordinator assigns per-group LSNs); records are
// split by owning block like single deltas and enqueued in record
// order, so each block group assigns its records ascending LSNs and the
// batched run produces exactly the LSN sequence lockstep single-delta
// ingest would. Records are applied independently (a rejected record
// does not retract its predecessors); the reply counts fully applied
// records and reports the first failure by its batch index.
func (c *Coordinator) DeltaBatch(recs []server.LoggedDelta) (uint64, int, error) {
	if len(recs) == 0 {
		return 0, 0, fmt.Errorf("shard: empty delta batch")
	}
	type pending struct {
		rec int
		g   *blockGroup
		req *ingestReq
	}
	groups := c.groups() // one topology snapshot routes the whole batch
	var (
		waits   []pending
		elected []*blockGroup // groups whose queue this call must lead
		leading = make(map[*blockGroup]bool)
	)
	recErr := make([]error, len(recs))
	// Route every record before enqueueing any: a malformed record must
	// refuse the batch while no queue holds its predecessors.
	parts := make([]map[int][]server.Row, len(recs))
	for i, rec := range recs {
		if rec.LSN != 0 {
			return 0, 0, fmt.Errorf("shard: batch record %d: the coordinator assigns LSNs; retry without lsn", i)
		}
		perBlock, err := c.splitByBlock(groups, rec.Rows)
		if err != nil {
			return 0, 0, fmt.Errorf("shard: batch record %d: %w", i, err)
		}
		parts[i] = perBlock
	}
	for i, perBlock := range parts {
		// Enqueue this record on every involved group before looking at
		// the next record: per-group queue order is assignment order, so
		// record order in the batch is LSN order in each group.
		for b, part := range perBlock {
			g := groups[b]
			req, lead := g.enqueueIngest(part)
			waits = append(waits, pending{rec: i, g: g, req: req})
			if lead && !leading[g] {
				leading[g] = true
				elected = append(elected, g)
			}
		}
	}
	for _, g := range elected {
		c.leadIngest(g)
	}
	var maxLSN uint64
	for _, p := range waits {
		lsn, err := c.awaitIngest(p.g, p.req, false)
		if errors.Is(err, errGroupRetired) {
			// A split cutover replaced the group mid-batch: re-route this
			// record's part against the fresh topology (the cutover drained
			// the parent first, so nothing lands twice).
			lsn, err = c.ingestRows(p.req.rows, 1)
		}
		if err != nil && recErr[p.rec] == nil {
			recErr[p.rec] = fmt.Errorf("batch record %d: block %s: %w", p.rec, p.g.block, err)
		}
		if lsn > maxLSN {
			maxLSN = lsn
		}
	}
	applied := 0
	var firstErr error
	cells := 0
	for i, err := range recErr {
		if err == nil {
			applied++
			cells += len(recs[i].Rows)
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if applied > 0 {
		c.stats.deltas.Add(int64(applied))
		c.stats.deltaCells.Add(int64(cells))
	}
	return maxLSN, applied, firstErr
}

// splitByBlock validates rows against the schema and partitions them by
// owning block group index within the given topology snapshot.
func (c *Coordinator) splitByBlock(groups []*blockGroup, rows []server.Row) (map[int][]server.Row, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("shard: empty delta")
	}
	rank := len(c.sizes)
	perBlock := make(map[int][]server.Row)
	for _, row := range rows {
		if len(row.Coords) != rank {
			return nil, fmt.Errorf("shard: delta row has %d coordinates, schema has %d dimensions",
				len(row.Coords), rank)
		}
		owner := -1
		for b, g := range groups {
			inside := true
			for j, x := range row.Coords {
				if x < g.block.Lo[j] || x >= g.block.Hi[j] {
					inside = false
					break
				}
			}
			if inside {
				owner = b
				break
			}
		}
		if owner < 0 {
			return nil, fmt.Errorf("shard: delta cell %v outside every block", row.Coords)
		}
		perBlock[owner] = append(perBlock[owner], row)
	}
	return perBlock, nil
}

// ingestReq is one delta waiting in a block group's commit queue. The
// committing leader fills lsn/err and closes done; a waiter whose lead
// channel closes instead has been promoted to lead the next round.
type ingestReq struct {
	rows []server.Row
	lsn  uint64
	err  error
	done chan struct{}
	lead chan struct{}
}

// ingestGroup queues one delta for a block group and waits for the
// group's commit leader (possibly this caller) to ship it.
func (c *Coordinator) ingestGroup(g *blockGroup, rows []server.Row) (uint64, error) {
	req, elected := g.enqueueIngest(rows)
	return c.awaitIngest(g, req, elected)
}

// enqueueIngest appends one record to the group's commit queue and
// reports whether the caller was elected leader (the queue was idle).
func (g *blockGroup) enqueueIngest(rows []server.Row) (*ingestReq, bool) {
	req := &ingestReq{rows: rows, done: make(chan struct{}), lead: make(chan struct{})}
	g.imu.Lock()
	g.iqueue = append(g.iqueue, req)
	elected := !g.ileader
	if elected {
		g.ileader = true
	}
	g.imu.Unlock()
	return req, elected
}

// awaitIngest blocks until req commits, leading the group's queue first
// when elected at enqueue (or promoted while waiting).
func (c *Coordinator) awaitIngest(g *blockGroup, req *ingestReq, elected bool) (uint64, error) {
	if elected {
		c.leadIngest(g)
	} else {
		select {
		case <-req.done:
		case <-req.lead:
			c.leadIngest(g)
		}
	}
	<-req.done
	return req.lsn, req.err
}

// leadIngest drains the group's queue, commits the run to the replicas,
// wakes the waiters, and hands leadership to the head of whatever
// queued up meanwhile (the queue refills while the round's network I/O
// and fsyncs are in flight — that is what grows the groups).
func (c *Coordinator) leadIngest(g *blockGroup) {
	g.imu.Lock()
	batch := g.iqueue
	g.iqueue = nil
	g.imu.Unlock()
	if len(batch) > 0 {
		c.commitQueued(g, batch)
		for _, req := range batch {
			close(req.done)
		}
	}
	g.imu.Lock()
	if len(g.iqueue) == 0 {
		g.ileader = false
		g.imu.Unlock()
		return
	}
	next := g.iqueue[0]
	g.imu.Unlock()
	close(next.lead)
}

// testHookBeforeWriteLock, when set, runs as an ingest leader is about to
// take its group's write lock, so a test can cut a replica over at that
// moment.
var testHookBeforeWriteLock func(g *blockGroup)

// commitQueued commits one drained queue run to a block group: it takes
// the group's write lock, refuses groups that cannot ingest, and fires
// the group's cache-invalidation hooks once if anything landed. The
// replica list is read under the lock: AttachReplica admits a joiner
// under the same lock at repLSN == lastLSN, so a list read before it
// would ship the next record to the old replicas only.
func (c *Coordinator) commitQueued(g *blockGroup, batch []*ingestReq) {
	if testHookBeforeWriteLock != nil {
		testHookBeforeWriteLock(g)
	}
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	reps := g.replicaList()
	durable, total := 0, len(reps)
	for _, rep := range reps {
		if rep.durable {
			durable++
		}
	}
	var durableErr error
	if durable == 0 {
		durableErr = fmt.Errorf("shard: replicas are not durable; ingest needs nodes started with a data dir")
	} else if durable != total {
		durableErr = fmt.Errorf("shard: %d of %d replicas are durable; mixed groups cannot ingest", durable, total)
	}
	if durableErr != nil {
		for _, req := range batch {
			req.err = durableErr
		}
		return
	}
	if g.retired {
		// A split cutover retired this group after the writer routed to it;
		// the cutover drained the parent tail first, so refusing here and
		// letting the writer re-route against the fresh topology is exact.
		for _, req := range batch {
			req.err = errGroupRetired
		}
		return
	}
	c.stats.ingestBatch.Observe(int64(len(batch)))
	if c.commitToGroup(g, reps, batch) {
		c.notifyIngest(g, batch)
	}
}

// commitToGroup ships one run to every live replica of a block as ONE
// DELTABATCH per replica — one round trip, one log write and one fsync
// covering the whole run, a run of one included — at LSNs
// lastLSN+1..lastLSN+len(batch), filling each request's lsn/err; the
// caller holds the group's write lock. It reports whether any record
// landed. Transport failures mark the replica down and the write
// proceeds on the rest; it succeeds if at least one replica
// acknowledged.
func (c *Coordinator) commitToGroup(g *blockGroup, reps []*replica, batch []*ingestReq) bool {
	base := g.lastLSN
	recs := make([]server.LoggedDelta, len(batch))
	for i, req := range batch {
		recs[i] = server.LoggedDelta{LSN: base + 1 + uint64(i), Rows: req.rows}
	}
	acks := 0
	ackers := make([]string, 0, len(reps))
	var lastErr error
	for _, rep := range reps {
		if rep.down.Load() {
			continue
		}
		cl, err := rep.pool.get()
		if err != nil {
			c.markDown(rep)
			lastErr = fmt.Errorf("dial %s: %w", rep.addr, err)
			continue
		}
		_, _, err = cl.DeltaBatch(recs)
		if err != nil {
			var remote *server.RemoteError
			if errors.As(err, &remote) {
				// The replica answered: the connection is healthy, and some
				// record was deterministically rejected (an overlapping
				// delta, say) after the replica applied AND durably logged
				// the records before it. With no acks yet no replica holds
				// more than that prefix, so a run of one simply fails
				// without advancing the LSN, and a longer run is replayed as
				// runs of one so the bad record fails alone — the idempotent
				// per-record LSN checks turn the re-sent prefix into no-ops
				// on this replica and fresh applies on its peers, and its
				// neighbours land at exactly the positions one-at-a-time
				// ingest would have assigned. After an ack a rejection means
				// this replica diverged from the group, so evict it.
				rep.pool.put(cl)
				if acks == 0 {
					if len(batch) == 1 {
						batch[0].err = err
						return false
					}
					landed := false
					for _, req := range batch {
						if c.commitToGroup(g, reps, []*ingestReq{req}) {
							landed = true
						}
					}
					return landed
				}
				c.markDown(rep)
				lastErr = fmt.Errorf("%s diverged: %w", rep.addr, err)
				continue
			}
			rep.pool.discard(cl)
			c.markDown(rep)
			lastErr = fmt.Errorf("%s: %w", rep.addr, err)
			continue
		}
		rep.pool.put(cl)
		acks++
		ackers = append(ackers, rep.addr)
	}
	if acks == 0 {
		// lastLSN stays put: nothing was acknowledged, so a retry
		// reassigns the same positions. A replica that logged the run
		// before its ack was lost now holds up to len(batch)
		// unacknowledged records while the positions stay open for
		// reassignment; it was marked down above, and rejoin reconciles
		// its tail (truncating the orphaned or divergent suffix) before
		// readmitting.
		if lastErr == nil {
			lastErr = fmt.Errorf("every replica is down")
		}
		err := fmt.Errorf("shard: delta not acknowledged by any replica: %w", lastErr)
		for _, req := range batch {
			req.err = err
		}
		return false
	}
	g.lastLSN = base + uint64(len(batch))
	// Exactly the ackers of this run hold the group's tail record.
	for addr := range g.tailAckers {
		delete(g.tailAckers, addr)
	}
	for _, addr := range ackers {
		g.tailAckers[addr] = true
	}
	for i, req := range batch {
		req.lsn = base + 1 + uint64(i)
	}
	return true
}

// markDown evicts a replica from the serving set (once), so reads
// prefer its peers and the rejoin loop starts probing it.
func (c *Coordinator) markDown(rep *replica) {
	if rep.down.CompareAndSwap(false, true) {
		c.stats.replicaDowns.Inc()
	}
}

// rejoinLoop periodically probes down replicas and re-admits the ones
// it can catch up. Started by NewCoordinator when the cluster is
// durable and RejoinEvery is positive; stopped by Close.
func (c *Coordinator) rejoinLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.RejoinEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for _, g := range c.groups() {
			for _, rep := range g.replicaList() {
				if rep.down.Load() {
					c.tryRejoin(g, rep)
				}
			}
		}
	}
}

// tryRejoin probes one down replica and, if reachable, reconciles its
// log tail with the group, catches it up from a live peer, and returns
// it to the serving set. Failures leave the replica down for the next
// probe — every step is idempotent.
func (c *Coordinator) tryRejoin(g *blockGroup, rep *replica) {
	cl, err := rep.pool.get()
	if err != nil {
		return
	}
	info, err := cl.ShardInfo()
	if err != nil {
		rep.pool.discard(cl)
		return
	}
	lsnField, isDurable := info["lsn"]
	if !isDurable {
		// A non-durable replica rebuilt its cube from source on restart;
		// there is no log to reconcile, it is simply back.
		rep.pool.put(cl)
		c.readmit(rep)
		return
	}
	var repLSN uint64
	if _, err := fmt.Sscanf(lsnField, "%d", &repLSN); err != nil {
		rep.pool.discard(cl)
		return
	}

	// Reconcile the tail before any catch-up: divergence, when present,
	// lives only in the replica's newest record (see the file comment),
	// and catch-up would bury it under peer records.
	g.writeMu.Lock()
	lastLSN := g.lastLSN
	trusted := g.tailAckers[rep.addr]
	g.writeMu.Unlock()
	switch {
	case repLSN > lastLSN:
		// Orphan tail: every record above the group's high-water mark was
		// never acknowledged to any client (an acked write advances
		// lastLSN before the coordinator replies, and a down replica
		// receives no writes after the snapshot above), so discarding them
		// is safe — and required, or the open positions would collide with
		// future assignments.
		if repLSN, err = c.truncateTo(cl, lastLSN); err != nil {
			rep.pool.discard(cl)
			return
		}
	case repLSN == 0 || trusted:
		// Empty log, or this replica acked the group's current tail
		// record: its content is the group's by construction.
	default:
		// The replica sits at or below the group's tail without having
		// acked the group's newest record; after a lost-ack round a
		// contiguous suffix of its log — one record for a lost single
		// delta, up to a whole batch for a lost DELTABATCH — can differ
		// from the group's records at the same positions. Walk down to
		// the highest position a live peer confirms and cut everything
		// above it.
		if repLSN, err = c.reconcileTail(g, rep, cl, repLSN); err != nil {
			// No live peer, a trimmed peer log, or a transport failure:
			// the tail cannot be verified, so the replica stays down
			// rather than risk serving divergent cells.
			rep.pool.discard(cl)
			return
		}
	}

	// Bulk catch-up outside the write lock: stream missed records from a
	// live durable peer and replay them onto the rejoiner. Ingest may
	// keep advancing the group meanwhile; the final gap closes below.
	repLSN, err = c.catchUp(g, rep, cl, repLSN)
	if err != nil {
		rep.pool.discard(cl)
		return
	}

	// Close the last gap with ingest paused, then re-admit.
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	repLSN, err = c.catchUp(g, rep, cl, repLSN)
	if err != nil || repLSN != g.lastLSN {
		rep.pool.discard(cl)
		return
	}
	// The replica now holds the group tail with peer-sourced (or
	// verified) content, which is exactly what tail-ackership asserts.
	g.tailAckers[rep.addr] = true
	rep.pool.put(cl)
	c.readmit(rep)
}

// truncateTo asks a rejoining replica to discard its log records above
// lsn and rebuild its state without them, returning its new position.
func (c *Coordinator) truncateTo(cl *server.Client, lsn uint64) (uint64, error) {
	last, err := cl.Truncate(lsn)
	if err != nil {
		return 0, err
	}
	c.stats.tailTruncates.Inc()
	return last, nil
}

// reconcileTail verifies a rejoining replica's log suffix against a
// live durable peer and truncates whatever the peer disowns. Divergence
// is always a contiguous suffix (see the file comment), so the repair
// is: walk down from the replica's newest record to the HIGHEST LSN
// whose content the peer confirms and truncate the replica to it. The
// comparison window grows geometrically — a lost single-delta ack
// diverges one record, a lost batch ack up to a whole batch — and any
// record the window needs that either side cannot produce (no live
// peer, trimmed logs, transport errors) is an error: the caller must
// not readmit what it cannot verify. Returns the replica's reconciled
// log position.
func (c *Coordinator) reconcileTail(g *blockGroup, rep *replica, cl *server.Client, repLSN uint64) (uint64, error) {
	peer, pcl, err := c.livePeer(g, rep)
	if err != nil {
		return 0, err
	}
	peerOK := false
	defer func() {
		if peerOK {
			peer.pool.put(pcl)
		} else {
			peer.pool.discard(pcl)
		}
	}()
	for step := uint64(4); ; step *= 8 {
		lo := uint64(0)
		if repLSN > step {
			lo = repLSN - step
		}
		peerOK = false
		repRecs, err := recordsByLSN(cl.DeltasSince(lo))
		if err != nil {
			peerOK = true // the replica's side failed; the peer is untouched
			return 0, err
		}
		peerRecs, err := recordsByLSN(pcl.DeltasSince(lo))
		if err != nil {
			return 0, err
		}
		peerOK = true
		for j := repLSN; j > lo; j-- {
			rrows, rok := repRecs[j]
			prows, pok := peerRecs[j]
			if !rok || !pok {
				// A log trimmed into the comparison window (the record is
				// baked into a checkpoint): the suffix cannot be verified.
				return 0, fmt.Errorf("shard: record %d unavailable for tail comparison (replica %s: %v, peer %s: %v)",
					j, rep.addr, rok, peer.addr, pok)
			}
			if rowsEqual(rrows, prows) {
				if j == repLSN {
					return repLSN, nil // the whole tail is the group's
				}
				return c.truncateTo(cl, j)
			}
		}
		if lo == 0 {
			// Every record down to the replica's first disagrees with the
			// group: nothing verifiable survives.
			return c.truncateTo(cl, 0)
		}
	}
}

// recordsByLSN indexes a DELTASINCE tail by record LSN, passing through
// the fetch error so calls compose.
func recordsByLSN(tail []server.LoggedDelta, err error) (map[uint64][]server.Row, error) {
	if err != nil {
		return nil, err
	}
	recs := make(map[uint64][]server.Row, len(tail))
	for _, rec := range tail {
		recs[rec.LSN] = rec.Rows
	}
	return recs, nil
}

// rowsEqual compares two logged records cell for cell. Both sides
// round-tripped the same wire encoding, so equality is exact.
func rowsEqual(a, b []server.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || len(a[i].Coords) != len(b[i].Coords) {
			return false
		}
		for j := range a[i].Coords {
			if a[i].Coords[j] != b[i].Coords[j] {
				return false
			}
		}
	}
	return true
}

// readmit returns a replica to the serving set (once).
func (c *Coordinator) readmit(rep *replica) {
	if rep.down.CompareAndSwap(true, false) {
		c.stats.rejoins.Inc()
	}
}

// livePeer finds a live durable peer of rep in g and returns a pooled
// client for it; the caller returns the client to peer.pool.
func (c *Coordinator) livePeer(g *blockGroup, rep *replica) (*replica, *server.Client, error) {
	for _, p := range g.replicaList() {
		if p == rep || !p.durable || p.down.Load() {
			continue
		}
		pcl, err := p.pool.get()
		if err != nil {
			continue
		}
		return p, pcl, nil
	}
	return nil, nil, fmt.Errorf("shard: no live durable peer for block %s", g.block)
}

// catchUp streams the records above lsn from a live durable peer of g
// and replays the window onto the rejoining replica's client cl as
// DELTABATCH runs — one log write and one fsync per run, not per record
// — returning the replica's new log position. With no live peer it
// returns lsn unchanged (the caller's high-water check decides whether
// that suffices). A failed replay fails the round: the next probe reads
// the replica's position afresh and resumes from there.
func (c *Coordinator) catchUp(g *blockGroup, rep *replica, cl *server.Client, lsn uint64) (uint64, error) {
	peer, pcl, err := c.livePeer(g, rep)
	if err != nil {
		return lsn, nil // no peer reachable; caller's LSN check decides
	}
	tail, err := pcl.DeltasSince(lsn)
	if err != nil {
		peer.pool.discard(pcl)
		return lsn, nil
	}
	peer.pool.put(pcl)
	if len(tail) == 0 {
		return lsn, nil
	}
	last, applied, err := cl.Replay(tail)
	c.stats.catchupRecords.Add(int64(applied))
	if err != nil {
		return lsn, err
	}
	return last, nil
}
