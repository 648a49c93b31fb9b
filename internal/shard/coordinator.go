package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcube"
	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/nd"
	"parcube/internal/obs"
	"parcube/internal/server"
)

// Config tunes a Coordinator.
type Config struct {
	// Addrs lists every shard node address. The coordinator discovers
	// which block each serves with the SHARDINFO handshake; within a
	// block, replicas are preferred in Addrs order.
	Addrs []string
	// Timeout bounds each sub-request (and dial) to a shard; a stalled
	// shard surfaces as a timeout and triggers failover. Default 2s.
	Timeout time.Duration
	// Backoff is the wait before the first retry after a failure; it
	// doubles on every subsequent attempt for the same block. Default 10ms.
	Backoff time.Duration
	// Rounds is how many passes over a block's replica list are made
	// before the query fails. Default 2 (every replica gets a second
	// chance after backoff).
	Rounds int
	// RejoinEvery is the probe interval of the background loop that
	// re-admits down replicas after catching them up from a live peer.
	// Default 100ms; negative disables the loop. The loop only starts
	// when the cluster has durable replicas to reconcile.
	RejoinEvery time.Duration
	// Hedge enables hedged reads: when a block has two or more live
	// replicas, a query that has not answered within the hedge delay is
	// reissued to the next replica and the first answer wins, cutting
	// the tail latency a single slow replica would otherwise impose.
	Hedge bool
	// HedgeDelay fixes the hedge delay. Zero derives it from the
	// observed attempt-latency histogram: the p99 once enough samples
	// exist (clamped to [500µs, Timeout/2]), Timeout/16 before that.
	HedgeDelay time.Duration
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.Rounds <= 0 {
		c.Rounds = 2
	}
	if c.RejoinEvery == 0 {
		c.RejoinEvery = 100 * time.Millisecond
	}
	return c
}

// replica is one shard node serving a block.
type replica struct {
	addr string
	id   int
	pool *pool

	// durable reports whether the node announced a WAL high-water mark
	// (lsn=) in its SHARDINFO handshake; only durable replicas ingest.
	durable bool
	// handshakeLSN is the WAL position announced at handshake (durable
	// replicas only) — it seeds the group's tail-acker set.
	handshakeLSN uint64
	// down marks a replica out of the read and write sets after a write
	// to it failed; the rejoin loop clears it once the replica is caught
	// up. Reads fall back to down replicas only when no live one is left.
	down atomic.Bool
}

// blockGroup is a block and its replicas, preferred in order.
type blockGroup struct {
	block nd.Block
	// reps holds the group's replica list as an immutable snapshot:
	// readers load it lock-free, and membership changes (elastic attach,
	// drain) swap a fresh copy under writeMu. A reader iterating an old
	// snapshot may still talk to a just-drained replica — which keeps
	// serving until its connections wind down, the zero-downtime drain
	// contract.
	reps atomic.Pointer[[]*replica]

	// retired, guarded by writeMu, marks a group replaced by a split
	// cutover: its block is now served by child groups in a newer
	// topology. Ingest that reaches a retired group (through a stale
	// topology snapshot) is refused with errGroupRetired and re-routed by
	// the caller against the current topology; reads need no such check —
	// the group's replicas still hold a complete, consistent copy of the
	// block's history up to the cutover, and the cutover drained every
	// pending write first.
	retired bool

	// writeMu serializes ingest into this block so every replica's WAL
	// assigns identical LSNs to identical deltas (replica lockstep).
	// lastLSN, guarded by it, is the group's acknowledged high-water
	// mark — initialized from the handshake's largest announced lsn.
	writeMu sync.Mutex
	lastLSN uint64
	// tailAckers, guarded by writeMu, names the replicas known to hold
	// the group's tail record with the group's content: the ackers of the
	// last acknowledged write (or, at handshake, the replicas announcing
	// the high-water mark). An unacknowledged write can leave a down
	// replica holding a *different* record at an assigned LSN — lastLSN
	// does not advance, so the next delta reuses the position — which is
	// why rejoin trusts matching LSN positions only for tail ackers and
	// verifies everyone else's tail content against a live peer.
	tailAckers map[string]bool

	// imu guards the group-commit queue: deltas arriving while a commit
	// round's network I/O and fsyncs are in flight queue here, and the
	// round's leader ships them as one DELTABATCH per replica (see
	// ingest.go). ileader is true while some goroutine owns the queue;
	// leadership hands off to the head of the refilled queue after every
	// round.
	imu     sync.Mutex
	iqueue  []*ingestReq
	ileader bool
}

// replicaList returns the group's current replica snapshot.
func (g *blockGroup) replicaList() []*replica {
	if p := g.reps.Load(); p != nil {
		return *p
	}
	return nil
}

// setReplicas publishes a new replica snapshot; membership changes call
// it under writeMu so concurrent cutovers cannot lose each other's
// updates.
func (g *blockGroup) setReplicas(reps []*replica) { g.reps.Store(&reps) }

// topology is one immutable serving-plan snapshot: the epoch and the
// block groups serving under it. Queries and ingest load exactly one
// snapshot per operation; membership changes publish a successor with a
// bumped epoch. Group indices are stable across cutovers — a split
// reuses the parent's slot for its first child and appends the rest — so
// a block index taken from one snapshot still names the same (or an
// enclosing, for the reused parent slot) region in any later one, which
// is what keeps index-keyed cache invalidation sound across the swap
// window.
type topology struct {
	epoch  uint64
	groups []*blockGroup
}

// Coordinator answers the cube line protocol by scatter-gathering shard
// nodes: every query fans out to one owner of each block, partial tables
// merge element-wise under the cube's aggregation operator, and a failed
// or stalled shard fails over to its replicas with exponential backoff.
// It implements server.Backend (plus the Value fast path and STATS
// extension), so server.NewBackend turns it into a drop-in replacement
// for a single-node cube server.
type Coordinator struct {
	cfg   Config
	op    agg.Op
	names []string
	sizes []int

	// top is the serving topology: queries and ingest load one snapshot
	// per operation, membership changes publish a successor under topMu.
	// Lock order: a group's writeMu (when held) comes before topMu.
	top   atomic.Pointer[topology]
	topMu sync.Mutex

	stats *counters

	// ingestHooks are called after every applied run with the block
	// group it landed in and its rows — the query cache's exact
	// invalidation feed. planHooks are called after every topology swap
	// that changed the block-group set (a split cutover), with the new
	// group count.
	hooksMu     sync.RWMutex
	ingestHooks []func(block int, rows []server.Row)
	planHooks   []func(numBlocks int)

	// retiredReps keeps replicas removed from the serving topology
	// (drained nodes, split parents) alive until Close: in-flight
	// operations on older topology snapshots may still hold their pools.
	retiredMu   sync.Mutex
	retiredReps []*replica

	// rejoin loop lifecycle; stop is nil when the loop never started.
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// groups returns the current topology's block groups.
func (c *Coordinator) groups() []*blockGroup { return c.top.Load().groups }

// NewCoordinator dials every shard, performs the SHARDINFO handshake, and
// assembles the serving topology. It fails if the shards disagree on
// schema or operator, or if their blocks do not tile the schema's array
// exactly.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard address")
	}
	c := &Coordinator{cfg: cfg, stats: newCounters()}
	groups := make(map[string]*blockGroup)
	repsOf := make(map[string][]*replica)
	var order []string
	for _, addr := range cfg.Addrs {
		p := newPool(addr, cfg.Timeout)
		cl, err := p.get()
		if err != nil {
			return nil, fmt.Errorf("shard: handshake with %s: %w", addr, err)
		}
		info, err := cl.ShardInfo()
		if err != nil {
			p.discard(cl)
			return nil, fmt.Errorf("shard: handshake with %s: %w", addr, err)
		}
		schema, err := cl.Schema()
		if err != nil {
			p.discard(cl)
			return nil, fmt.Errorf("shard: schema from %s: %w", addr, err)
		}
		p.put(cl)

		op, err := agg.Parse(info["op"])
		if err != nil {
			return nil, fmt.Errorf("shard: %s: %w", addr, err)
		}
		id, err := strconv.Atoi(info["id"])
		if err != nil {
			return nil, fmt.Errorf("shard: %s: malformed shard id %q", addr, info["id"])
		}
		block, err := ParseBlock(info["block"])
		if err != nil {
			return nil, fmt.Errorf("shard: %s: %w", addr, err)
		}
		names, sizes, err := parseSchema(schema)
		if err != nil {
			return nil, fmt.Errorf("shard: %s: %w", addr, err)
		}

		if c.names == nil {
			c.op = op
			c.names = names
			c.sizes = sizes
		} else {
			if op != c.op {
				return nil, fmt.Errorf("shard: %s aggregates with %v, cluster uses %v", addr, op, c.op)
			}
			if !sameSchema(c.names, c.sizes, names, sizes) {
				return nil, fmt.Errorf("shard: %s serves schema %v %v, cluster serves %v %v",
					addr, names, sizes, c.names, c.sizes)
			}
		}
		key := block.String()
		g, ok := groups[key]
		if !ok {
			g = &blockGroup{block: block, tailAckers: make(map[string]bool)}
			groups[key] = g
			order = append(order, key)
		}
		rep := &replica{addr: addr, id: id, pool: p}
		if lsnField, ok := info["lsn"]; ok {
			lsn, err := strconv.ParseUint(lsnField, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("shard: %s: malformed lsn %q", addr, lsnField)
			}
			rep.durable = true
			rep.handshakeLSN = lsn
			if lsn > g.lastLSN {
				g.lastLSN = lsn
			}
		}
		repsOf[key] = append(repsOf[key], rep)
	}
	var serving []*blockGroup
	for _, key := range order {
		g := groups[key]
		g.setReplicas(repsOf[key])
		// Replicas announcing the group high-water mark hold its tail
		// record; peers behind it are caught up (and verified) through the
		// same rejoin path as a mid-run failure before they can diverge.
		for _, rep := range repsOf[key] {
			if rep.durable && rep.handshakeLSN == g.lastLSN {
				g.tailAckers[rep.addr] = true
			}
		}
		serving = append(serving, g)
	}
	c.top.Store(&topology{epoch: 1, groups: serving})
	if err := c.validateTiling(serving); err != nil {
		_ = c.Close() // constructor failed; tiling error is the one to report
		return nil, err
	}
	if cfg.RejoinEvery > 0 && c.anyDurable() {
		c.stop = make(chan struct{})
		c.wg.Add(1)
		go c.rejoinLoop()
	}
	return c, nil
}

// anyDurable reports whether any replica announced a WAL position.
func (c *Coordinator) anyDurable() bool {
	for _, g := range c.groups() {
		for _, r := range g.replicaList() {
			if r.durable {
				return true
			}
		}
	}
	return false
}

// validateTiling checks the given blocks partition the schema's
// array exactly: right rank, in bounds, pairwise disjoint, and jointly
// covering (disjoint + total volume = array volume).
func (c *Coordinator) validateTiling(blocks []*blockGroup) error {
	rank := len(c.sizes)
	total := 1
	for _, s := range c.sizes {
		total *= s
	}
	covered := 0
	for i, g := range blocks {
		if g.block.Rank() != rank {
			return fmt.Errorf("shard: block %s has rank %d, schema has %d", g.block, g.block.Rank(), rank)
		}
		for j := 0; j < rank; j++ {
			if g.block.Lo[j] < 0 || g.block.Hi[j] > c.sizes[j] || g.block.Lo[j] >= g.block.Hi[j] {
				return fmt.Errorf("shard: block %s out of bounds for sizes %v", g.block, c.sizes)
			}
		}
		covered += g.block.Size()
		for _, h := range blocks[i+1:] {
			if blocksOverlap(g.block, h.block) {
				return fmt.Errorf("shard: blocks %s and %s overlap", g.block, h.block)
			}
		}
	}
	if covered != total {
		return fmt.Errorf("shard: blocks cover %d of %d cells — shards missing from the cluster", covered, total)
	}
	return nil
}

// blocksOverlap reports whether two equal-rank blocks intersect.
func blocksOverlap(a, b nd.Block) bool {
	for i := range a.Lo {
		if a.Hi[i] <= b.Lo[i] || b.Hi[i] <= a.Lo[i] {
			return false
		}
	}
	return true
}

// parseSchema splits "name:size" pairs from the SCHEMA reply.
func parseSchema(fields []string) ([]string, []int, error) {
	names := make([]string, 0, len(fields))
	sizes := make([]int, 0, len(fields))
	for _, f := range fields {
		i := strings.LastIndexByte(f, ':')
		if i <= 0 {
			return nil, nil, fmt.Errorf("malformed schema field %q", f)
		}
		n, err := strconv.Atoi(f[i+1:])
		if err != nil {
			return nil, nil, fmt.Errorf("malformed schema field %q", f)
		}
		names = append(names, f[:i])
		sizes = append(sizes, n)
	}
	return names, sizes, nil
}

// sameSchema compares two schemas field-wise.
func sameSchema(an []string, as []int, bn []string, bs []int) bool {
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i] != bn[i] || as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Close stops the rejoin loop and releases every pooled connection,
// joining their close errors. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		if c.stop != nil {
			close(c.stop)
			c.wg.Wait()
		}
		var errs []error
		for _, g := range c.groups() {
			for _, r := range g.replicaList() {
				if err := r.pool.close(); err != nil {
					errs = append(errs, fmt.Errorf("shard: closing pool for %s: %w", r.addr, err))
				}
			}
		}
		c.retiredMu.Lock()
		retired := c.retiredReps
		c.retiredReps = nil
		c.retiredMu.Unlock()
		for _, r := range retired {
			if err := r.pool.close(); err != nil {
				errs = append(errs, fmt.Errorf("shard: closing pool for retired %s: %w", r.addr, err))
			}
		}
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}

// Stats returns a snapshot of the coordinator's scatter-gather counters.
func (c *Coordinator) Stats() Stats { return c.stats.snapshot() }

// Metrics returns the coordinator's per-instance registry (fan-out and
// failover counters plus ask/merge latency histograms), for export beyond
// the STATS reply — e.g. cubeshard's /debug/vars endpoint.
func (c *Coordinator) Metrics() *obs.Registry { return c.stats.reg }

// StatsFields appends the coordinator's topology and its full metrics
// registry (counters plus ask/merge latency histograms) to the server's
// STATS reply.
func (c *Coordinator) StatsFields() []string {
	topo := c.top.Load()
	replicas := 0
	for _, g := range topo.groups {
		replicas += len(g.replicaList())
	}
	fields := []string{
		fmt.Sprintf("plan_epoch=%d", topo.epoch),
		fmt.Sprintf("blocks=%d", len(topo.groups)),
		fmt.Sprintf("shards=%d", replicas),
	}
	return append(fields, c.stats.reg.Fields()...)
}

// SchemaDims returns the cluster schema discovered at handshake.
func (c *Coordinator) SchemaDims() ([]string, []int) {
	return append([]string(nil), c.names...), append([]int(nil), c.sizes...)
}

// NumBlocks reports how many block groups tile the array.
func (c *Coordinator) NumBlocks() int { return len(c.groups()) }

// Op returns the cluster's aggregation operator, discovered at
// handshake.
func (c *Coordinator) Op() agg.Op { return c.op }

// OnIngest registers fn to run after every delta applied through this
// coordinator, with the index of the block group it landed in. Hooks
// run on the ingest path (once per committed run per touched block,
// after the block's replicas acknowledged) and must be fast and
// non-blocking; a query cache without row-aware invalidation
// subscribes here.
func (c *Coordinator) OnIngest(fn func(block int)) {
	c.OnIngestRows(func(block int, _ []server.Row) { fn(block) })
}

// OnIngestRows is OnIngest with the rows of the run: every row of every
// request in it, those of requests that reported an error included, so
// the rows are a superset of what landed. fn must not retain or modify
// them.
func (c *Coordinator) OnIngestRows(fn func(block int, rows []server.Row)) {
	c.hooksMu.Lock()
	c.ingestHooks = append(c.ingestHooks, fn)
	c.hooksMu.Unlock()
}

// notifyIngest fans one applied-run event out to the registered hooks.
// The block index is resolved against the CURRENT topology — not the
// snapshot the run committed under — so a subscriber keyed by block
// index (the query cache) invalidates the slot the group occupies now.
// A group no longer in the topology was retired by a split whose
// plan-change hook already invalidated everything, so its event can be
// dropped.
func (c *Coordinator) notifyIngest(g *blockGroup, batch []*ingestReq) {
	c.hooksMu.RLock()
	hooks := c.ingestHooks
	c.hooksMu.RUnlock()
	if len(hooks) == 0 {
		return
	}
	b := -1
	for i, h := range c.groups() {
		if h == g {
			b = i
			break
		}
	}
	if b < 0 {
		return
	}
	rows := batch[0].rows
	if len(batch) > 1 {
		rows = nil
		for _, req := range batch {
			rows = append(rows, req.rows...)
		}
	}
	for _, fn := range hooks {
		fn(b, rows)
	}
}

// OnPlanChange registers fn to run after every topology cutover that
// changed the block-group set (a split), with the new group count. The
// query cache subscribes here to flush wholesale and resize its
// per-block epoch guards; hooks must be fast and non-blocking.
func (c *Coordinator) OnPlanChange(fn func(numBlocks int)) {
	c.hooksMu.Lock()
	c.planHooks = append(c.planHooks, fn)
	c.hooksMu.Unlock()
}

// notifyPlanChange fans one plan-change event out to the registered
// hooks.
func (c *Coordinator) notifyPlanChange(numBlocks int) {
	c.hooksMu.RLock()
	hooks := c.planHooks
	c.hooksMu.RUnlock()
	for _, fn := range hooks {
		fn(numBlocks)
	}
}

// attempt runs one fetch against one replica over a pooled connection,
// recording its latency in the hedge-delay histogram on success.
func (c *Coordinator) attempt(rep *replica, fetch func(cl *server.Client) (any, error)) (any, error) {
	cl, err := rep.pool.get()
	if err != nil {
		c.stats.errors.Inc()
		return nil, fmt.Errorf("dial %s: %w", rep.addr, err)
	}
	start := time.Now()
	v, err := fetch(cl)
	if err != nil {
		c.stats.errors.Inc()
		rep.pool.discard(cl)
		return nil, fmt.Errorf("%s: %w", rep.addr, err)
	}
	c.stats.attemptNs.ObserveSince(start)
	rep.pool.put(cl)
	return v, nil
}

// hedgeDelay is how long a hedged read waits before reissuing to a
// second replica: the configured HedgeDelay, or — once the attempt
// histogram has enough samples — the observed p99 clamped to
// [500µs, Timeout/2]. Before the histogram warms up it defaults to
// Timeout/16 so cold coordinators still hedge stuck replicas.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	snap := c.stats.attemptNs.Snapshot()
	if snap.Count >= 32 {
		d := time.Duration(snap.P99)
		if floor := 500 * time.Microsecond; d < floor {
			d = floor
		}
		if ceil := c.cfg.Timeout / 2; d > ceil {
			d = ceil
		}
		return d
	}
	return c.cfg.Timeout / 16
}

// askHedged races the fetch on the two preferred live replicas: the
// first starts immediately, the second only if the first has not
// answered within the hedge delay, and the first success wins. Fetches
// must be read-only and side-effect free — both may execute. Returns
// ok=false when every launched attempt failed (the caller falls back to
// the sequential ladder).
func (c *Coordinator) askHedged(candidates []*replica, fetch func(cl *server.Client) (any, error)) (any, bool) {
	type result struct {
		v      any
		err    error
		hedged bool
	}
	ch := make(chan result, 2)
	go func() {
		v, err := c.attempt(candidates[0], fetch)
		ch <- result{v, err, false}
	}()
	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	launched := 1
	for done := 0; done < launched; {
		select {
		case r := <-ch:
			done++
			if r.err == nil {
				if r.hedged {
					c.stats.hedgeWins.Inc()
				}
				return r.v, true
			}
		case <-timer.C:
			if launched == 1 {
				c.stats.hedgesFired.Inc()
				launched = 2
				go func() {
					v, err := c.attempt(candidates[1], fetch)
					ch <- result{v, err, true}
				}()
			}
		}
	}
	return nil, false
}

// liveCandidates returns the block's replicas not marked down by the
// ingest path; when the whole group is down (or rejoin hasn't caught up
// yet), it falls back to everyone rather than failing without an
// attempt.
func liveCandidates(g *blockGroup) []*replica {
	reps := g.replicaList()
	candidates := make([]*replica, 0, len(reps))
	for _, rep := range reps {
		if !rep.down.Load() {
			candidates = append(candidates, rep)
		}
	}
	if len(candidates) == 0 {
		candidates = reps
	}
	return candidates
}

// askBlock runs fetch against the block's replicas until one answers
// and returns that answer. With hedging enabled and two live replicas
// available, a hedged race runs first; otherwise (and as the fallback
// when both hedge attempts fail) replicas are tried in preference order
// for cfg.Rounds passes, every attempt after the first preceded by an
// exponentially growing backoff. When all attempts fail, the returned
// error names the block, the replicas tried, and the last underlying
// cause.
func (c *Coordinator) askGroup(g *blockGroup, fetch func(cl *server.Client) (any, error)) (any, error) {
	c.stats.fanouts.Inc()
	start := time.Now()
	defer c.stats.askNs.ObserveSince(start)
	if c.cfg.Hedge {
		if live := liveCandidates(g); len(live) >= 2 {
			if v, ok := c.askHedged(live, fetch); ok {
				return v, nil
			}
		}
	}
	var lastErr error
	backoff := c.cfg.Backoff
	attempt := 0
	for round := 0; round < c.cfg.Rounds; round++ {
		for ri, rep := range liveCandidates(g) {
			if attempt > 0 {
				c.stats.retries.Inc()
				time.Sleep(backoff)
				backoff *= 2
			}
			attempt++
			v, err := c.attempt(rep, fetch)
			if err != nil {
				lastErr = err
				continue
			}
			if ri > 0 || round > 0 {
				c.stats.failovers.Inc()
			}
			return v, nil
		}
	}
	reps := g.replicaList()
	addrs := make([]string, len(reps))
	for i, rep := range reps {
		addrs[i] = rep.addr
	}
	return nil, fmt.Errorf("shard: block %s unavailable after %d attempts across replicas %s (last error: %v); partial results discarded",
		g.block, attempt, strings.Join(addrs, ","), lastErr)
}

// scatter runs fetch once per block group of groups (one topology
// snapshot covers the whole fan-out) concurrently, with per-block
// failover and hedging, and collects the answers in groups' order.
//
//cubelint:hotpath coordinator fan-out, once per distributed query
func (c *Coordinator) scatter(groups []*blockGroup, fetch func(cl *server.Client) (any, error)) ([]any, error) {
	vals := make([]any, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for b := range groups {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			vals[b], errs[b] = c.askGroup(groups[b], fetch)
		}(b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// gatherDense scatter-gathers one dense group-by request (GROUPBY or
// QUERY) to groups and folds their values element-wise, from the
// identity, under the cluster operator. fetch is handed the schema's
// volume, the most cells a reply may declare; every block's reply must
// have the first one's extents.
//
//cubelint:hotpath coordinator gather-merge, once per distributed query
func (c *Coordinator) gatherDense(groups []*blockGroup, fetch func(cl *server.Client, limit int) (*server.Table, error)) (server.Result, error) {
	limit := 1
	for _, s := range c.sizes {
		limit *= s
	}
	vals, err := c.scatter(groups, func(cl *server.Client) (any, error) {
		return fetch(cl, limit)
	})
	if err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	defer c.stats.mergeNs.ObserveSince(mergeStart)
	acc := array.NewDense(vals[0].(*server.Table).Dense().Shape(), c.op)
	for _, v := range vals {
		d := v.(*server.Table).Dense()
		if !d.Shape().Equal(acc.Shape()) {
			return nil, fmt.Errorf("shard: block replies disagree on extents: %v and %v", []int(acc.Shape()), []int(d.Shape()))
		}
		acc.Combine(d, c.op)
	}
	return server.NewTable(acc), nil
}

// resolveDims validates a dimension list against the schema and returns
// the schema axis of each name.
func (c *Coordinator) resolveDims(dims []string) ([]int, error) {
	axes := make([]int, len(dims))
	seen := make(map[string]bool, len(dims))
	for i, name := range dims {
		if seen[name] {
			return nil, fmt.Errorf("shard: dimension %q repeated", name)
		}
		seen[name] = true
		axis := -1
		for j, n := range c.names {
			if n == name {
				axis = j
				break
			}
		}
		if axis < 0 {
			return nil, fmt.Errorf("shard: unknown dimension %q", name)
		}
		axes[i] = axis
	}
	return axes, nil
}

// GroupBy scatter-gathers the full group-by over the named dimensions.
func (c *Coordinator) GroupBy(dims ...string) (server.Result, error) {
	if _, err := c.resolveDims(dims); err != nil {
		return nil, err
	}
	return c.gatherDense(c.groups(), func(cl *server.Client, limit int) (*server.Table, error) {
		return cl.GroupByDense(limit, dims...)
	})
}

// Query scatter-gathers a parcube query-language statement. Statement
// semantics (group-by, slicing, range filters) are coordinate predicates,
// so every shard evaluates the same statement over its disjoint facts and
// the partial tables combine cell-exactly. Only the block groups whose
// block meets the statement's box (parcube.QueryBox) are asked: a block
// outside it holds no fact the answer reads, so its reply is the
// identity everywhere.
func (c *Coordinator) Query(stmt string) (server.Result, error) {
	// A statement QueryBox refuses is refused here, with the error a
	// node would give, and asks no group: a node's refusal would read as
	// a lost replica and be retried.
	box, err := parcube.QueryBox(stmt, c.names, c.sizes)
	if err != nil {
		return nil, err
	}
	groups := c.groups() // resolve and ask under one topology snapshot
	return c.gatherDense(groupsMeeting(groups, box), func(cl *server.Client, limit int) (*server.Table, error) {
		return cl.QueryDense(limit, stmt)
	})
}

// groupsMeeting returns the groups whose block meets box, the cells a
// statement reads; a box that meets no block goes to every group.
func groupsMeeting(groups []*blockGroup, box []parcube.Range) []*blockGroup {
	meet := make([]*blockGroup, 0, len(groups))
	for _, g := range groups {
		if blockMeets(g.block, box) {
			meet = append(meet, g)
		}
	}
	if len(meet) == 0 {
		return groups
	}
	return meet
}

// blockMeets reports whether block and box share a cell.
func blockMeets(block nd.Block, box []parcube.Range) bool {
	for i, r := range box {
		if r.Hi <= block.Lo[i] || r.Lo >= block.Hi[i] {
			return false
		}
	}
	return true
}

// Total scatter-gathers the grand total.
func (c *Coordinator) Total() (float64, error) {
	vals, err := c.scatter(c.groups(), func(cl *server.Client) (any, error) {
		return cl.Total()
	})
	if err != nil {
		return 0, err
	}
	acc := c.op.Identity()
	for _, v := range vals {
		acc = c.op.Combine(acc, v.(float64))
	}
	return acc, nil
}

// BlocksForValue returns (sorted) the indices of the blocks whose
// projection onto the retained dimensions contains the cell — the exact
// fan-out set of a VALUE query, also used by the query cache to
// invalidate point lookups per block group. With no dimensions (the
// grand total) every block contributes.
func (c *Coordinator) BlocksForValue(dims []string, coords []int) ([]int, error) {
	return c.blocksForValueIn(c.groups(), dims, coords)
}

// blocksForValueIn is BlocksForValue against one topology snapshot, so a
// caller fanning a query out can resolve and ask under the same plan.
func (c *Coordinator) blocksForValueIn(groups []*blockGroup, dims []string, coords []int) ([]int, error) {
	if len(dims) == 0 {
		if len(coords) != 0 {
			return nil, fmt.Errorf("shard: grand total takes no coordinates")
		}
		all := make([]int, len(groups))
		for b := range all {
			all[b] = b
		}
		return all, nil
	}
	axes, err := c.resolveDims(dims)
	if err != nil {
		return nil, err
	}
	if len(coords) != len(dims) {
		return nil, fmt.Errorf("shard: %d coordinates for %d dimensions", len(coords), len(dims))
	}
	for i, axis := range axes {
		if coords[i] < 0 || coords[i] >= c.sizes[axis] {
			return nil, fmt.Errorf("shard: coordinate %d out of range [0,%d) for %q",
				coords[i], c.sizes[axis], dims[i])
		}
	}
	owning := make([]int, 0, len(groups))
	for b, g := range groups {
		contains := true
		for i, axis := range axes {
			if coords[i] < g.block.Lo[axis] || coords[i] >= g.block.Hi[axis] {
				contains = false
				break
			}
		}
		if contains {
			owning = append(owning, b)
		}
	}
	sort.Ints(owning)
	return owning, nil
}

// Value answers a single-cell lookup, pruning the fan-out to the blocks
// whose projection onto the retained dimensions contains the cell — the
// payoff of sharding by the planner's block geometry: a point query
// touches only 2^(sum of K over collapsed dimensions) shards.
func (c *Coordinator) Value(dims []string, coords []int) (float64, error) {
	if len(dims) == 0 {
		if len(coords) != 0 {
			return 0, fmt.Errorf("shard: grand total takes no coordinates")
		}
		return c.Total()
	}
	groups := c.groups() // resolve and ask under one topology snapshot
	owning, err := c.blocksForValueIn(groups, dims, coords)
	if err != nil {
		return 0, err
	}

	asked := make([]*blockGroup, len(owning))
	for i, b := range owning {
		asked[i] = groups[b]
	}
	vals, err := c.scatter(asked, func(cl *server.Client) (any, error) {
		return cl.Value(dims, coords)
	})
	if err != nil {
		return 0, err
	}
	acc := c.op.Identity()
	for _, v := range vals {
		acc = c.op.Combine(acc, v.(float64))
	}
	return acc, nil
}
