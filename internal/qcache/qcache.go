// Package qcache is the serving tier's hot group-by result cache: a
// bounded, delta-invalidated cache wrapped around a server.Backend
// (normally the shard coordinator). Sundararajan & Yan's observation
// that a few hot group-bys dominate real cube traffic is what it
// exploits; the lockstep ingest path from the durable-shard work is
// what makes its invalidation *exact* rather than TTL-guesswork — the
// coordinator publishes a per-block-group event for every applied
// delta, and exactly the entries whose fan-out touched that block are
// dropped.
//
// Three mechanisms beyond a plain LRU:
//
//   - Exact invalidation: every entry records which block groups its
//     answer was gathered from (VALUE prunes to the owning blocks; full
//     group-bys touch all), and QUERY and VALUE entries also the box of
//     cells they read. An ingest event for block b bumps the block's
//     epoch and drops the entries over b, except those with a box that
//     no row of the event lies in; a fill whose backend read began
//     before the bump is rejected at insert, so a slow fill racing an
//     ingest can never resurrect a stale answer.
//
//   - Ancestor projection: a miss on GROUPBY A first looks for a cached
//     strict ancestor (e.g. GROUPBY A,B) and folds it down with the
//     cluster's distributive operator instead of re-scattering — the
//     views package's ancestor-answering model, applied to the cache.
//
//   - Pinning: with a space budget, the classic benefit-greedy view
//     selection (internal/views) chooses which group-bys are worth
//     keeping resident; pinned entries are exempt from LRU eviction
//     (never from invalidation) and Prefetch warms them.
package qcache

import (
	"container/list"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"parcube"
	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/obs"
	"parcube/internal/server"
	"parcube/internal/views"
)

// Planner is the optional backend refinement the cache uses for exact
// invalidation and ancestor projection. The shard coordinator satisfies
// it; without it the cache still works, with a single global epoch
// (every ingest invalidates everything) and no projection.
type Planner interface {
	// NumBlocks reports how many block groups tile the array.
	NumBlocks() int
	// BlocksForValue returns the blocks a VALUE fan-out touches.
	BlocksForValue(dims []string, coords []int) ([]int, error)
	// Op returns the cluster's aggregation operator.
	Op() agg.Op
}

// IngestNotifier is the optional backend refinement that publishes
// applied-delta events; the coordinator's OnIngest satisfies it.
type IngestNotifier interface {
	OnIngest(fn func(block int))
}

// RowNotifier is the IngestNotifier refinement that also passes every
// row of the applied run, so an entry with a filter box outlives rows
// outside it; the coordinator's OnIngestRows satisfies it. The rows are
// valid only during the call.
type RowNotifier interface {
	OnIngestRows(fn func(block int, rows []server.Row))
}

// PlanNotifier is the optional backend refinement that publishes
// topology changes that alter the block set (an elastic split); the
// coordinator's OnPlanChange satisfies it. On such an event the cache
// flushes wholesale and resizes its per-block epoch guard — block
// indices from before the change name different key ranges after it.
type PlanNotifier interface {
	OnPlanChange(fn func(numBlocks int))
}

// Config bounds the cache.
type Config struct {
	// MaxEntries caps the number of cached results (default 256).
	MaxEntries int
	// MaxCells caps the total cells held across unpinned entries
	// (default 1<<20). Pinned entries live outside this budget, under
	// PinCells.
	MaxCells int64
	// PinCells, when positive, runs the space-budgeted benefit-greedy
	// view selection over the schema lattice and pins the chosen
	// group-bys: never LRU-evicted, lazily (re)filled, warmable with
	// Prefetch. Requires a Planner backend (for the operator) and a
	// schema of at most lattice.MaxDims dimensions; ignored otherwise.
	PinCells int64
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 256
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 1 << 20
	}
	return c
}

// entry is one cached answer.
type entry struct {
	key string
	// dset identifies group-by entries for ancestor projection; it is
	// valid only when isGroupBy.
	dset      lattice.DimSet
	isGroupBy bool
	// blocks is the sorted fan-out set the answer was gathered from;
	// nil means every block.
	blocks []int
	// box holds, per schema dimension, the half-open coordinate range
	// the answer reads (a VALUE's cell; a QUERY's WHERE box, which boxOf
	// derives); a fact outside it cannot change the answer. nil means
	// every cell.
	box []parcube.Range
	// table holds table answers, with their axes in schema order (every
	// Backend answers so); scalar holds TOTAL/VALUE answers.
	table  *server.Table
	scalar float64
	cells  int64
	// pinned entries are exempt from LRU eviction; elem is nil for
	// them (they live outside the LRU list).
	pinned bool
	elem   *list.Element
}

// Cache wraps a backend with the serving-tier result cache. It
// implements server.Backend, server.ValueBackend, server.DeltaBackend
// (pass-through plus invalidation), and server.StatsReporter.
type Cache struct {
	inner   server.Backend
	cfg     Config
	planner Planner
	op      agg.Op
	names   []string
	sizes   []int

	mu         sync.Mutex
	entries    map[string]*entry
	lru        *list.List // front = most recent; unpinned entries only
	totalCells int64      // unpinned cells
	// epochs guard fills against racing invalidations: one per block
	// group (a single shared epoch without a Planner). A fill snapshots
	// the epochs of its fan-out before asking the backend and inserts
	// only if none moved.
	epochs []uint64
	// pinnedKeys marks the group-by keys chosen by view selection.
	pinnedKeys map[string][]string

	// fallbackMode is set when the backend accepts deltas but publishes
	// no ingest events: instead of dropping the cache once per delta,
	// such deltas mark fallbackDirty and the next read front flushes
	// once — one invalidation per write burst, not per write.
	fallbackMode  bool
	fallbackDirty atomic.Bool

	hits             *obs.Counter
	misses           *obs.Counter
	fills            *obs.Counter
	rejectedFills    *obs.Counter
	evictions        *obs.Counter
	invalidations    *obs.Counter
	ancestorHits     *obs.Counter
	planFlushes      *obs.Counter
	fallbackDeferred *obs.Counter
	fallbackFlushes  *obs.Counter
	entriesGauge     *obs.Gauge
	cellsGauge       *obs.Gauge
	reg              *obs.Registry
}

// Wrap builds the cache in front of a backend. When the backend is a
// Planner (the coordinator), invalidation is per block group and misses
// may be answered by projecting cached ancestors; when it is a
// RowNotifier or an IngestNotifier, invalidation events arrive exactly
// per applied delta (with its rows from a RowNotifier, so boxed entries
// can outlive them), otherwise any delta through the cache invalidates
// everything.
func Wrap(b server.Backend, cfg Config) *Cache {
	cfg = cfg.withDefaults()
	names, sizes := b.SchemaDims()
	c := &Cache{
		inner:   b,
		cfg:     cfg,
		names:   names,
		sizes:   sizes,
		entries: make(map[string]*entry),
		lru:     list.New(),
		reg:     obs.NewRegistry(),
	}
	c.hits = c.reg.Counter("qcache.hits")
	c.misses = c.reg.Counter("qcache.misses")
	c.fills = c.reg.Counter("qcache.fills")
	c.rejectedFills = c.reg.Counter("qcache.rejected_fills")
	c.evictions = c.reg.Counter("qcache.evictions")
	c.invalidations = c.reg.Counter("qcache.invalidations")
	c.ancestorHits = c.reg.Counter("qcache.ancestor_hits")
	c.planFlushes = c.reg.Counter("qcache.plan_flushes")
	c.fallbackDeferred = c.reg.Counter("qcache.fallback_deferred")
	c.fallbackFlushes = c.reg.Counter("qcache.fallback_flushes")
	c.entriesGauge = c.reg.Gauge("qcache.entries")
	c.cellsGauge = c.reg.Gauge("qcache.cells")

	nblocks := 1
	if p, ok := b.(Planner); ok {
		c.planner = p
		c.op = p.Op()
		if n := p.NumBlocks(); n > 0 {
			nblocks = n
		}
	}
	c.epochs = make([]uint64, nblocks)
	if c.planner != nil && cfg.PinCells > 0 && len(sizes) <= lattice.MaxDims && len(sizes) > 0 {
		c.selectPins()
	}
	if n, ok := b.(RowNotifier); ok {
		n.OnIngestRows(c.invalidateRows)
	} else if n, ok := b.(IngestNotifier); ok {
		n.OnIngest(c.InvalidateBlock)
	} else {
		c.fallbackMode = true
	}
	if pn, ok := b.(PlanNotifier); ok {
		pn.OnPlanChange(c.planChanged)
	}
	return c
}

// planChanged handles an elastic topology cutover that changed the
// block set: everything cached is keyed (and epoch-guarded) by block
// indices of the old topology, so the cache flushes wholesale and the
// epoch guard resizes to the new block count. The flush bumps every
// surviving epoch slot first, so an in-flight fill that snapshotted the
// old epochs can never insert against the new topology.
func (c *Cache) planChanged(numBlocks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateAllLocked()
	if numBlocks <= 0 {
		numBlocks = 1
	}
	if numBlocks != len(c.epochs) {
		next := make([]uint64, numBlocks)
		copy(next, c.epochs)
		c.epochs = next
	}
	c.planFlushes.Inc()
}

// selectPins runs the space-budgeted benefit greedy over the schema
// lattice and records the chosen group-bys as pinned keys.
func (c *Cache) selectPins() {
	l, err := lattice.New(nd.Shape(c.sizes))
	if err != nil {
		return
	}
	sel := views.SelectGreedyUnderSpace(l, c.cfg.PinCells, 0)
	c.pinnedKeys = make(map[string][]string, len(sel.Views))
	for _, v := range sel.Views {
		dims := make([]string, 0, v.Count())
		for _, axis := range v.Dims() {
			dims = append(dims, c.names[axis])
		}
		c.pinnedKeys[c.groupByKey(v)] = dims
	}
}

// PinnedGroupBys lists the group-bys chosen by view selection, in no
// particular order.
func (c *Cache) PinnedGroupBys() [][]string {
	out := make([][]string, 0, len(c.pinnedKeys))
	for _, dims := range c.pinnedKeys {
		out = append(out, append([]string(nil), dims...))
	}
	return out
}

// Prefetch materializes every pinned group-by not already resident, so
// a fresh coordinator starts hot.
func (c *Cache) Prefetch() error {
	for _, dims := range c.pinnedKeys {
		if _, err := c.GroupBy(dims...); err != nil {
			return err
		}
	}
	return nil
}

// Metrics exposes the cache's registry (hits, misses, fills,
// invalidations, ...).
func (c *Cache) Metrics() *obs.Registry { return c.reg }

// StatsFields appends the cache's counters — and the wrapped backend's
// own fields — to the STATS reply.
func (c *Cache) StatsFields() []string {
	var fields []string
	if rep, ok := c.inner.(server.StatsReporter); ok {
		fields = append(fields, rep.StatsFields()...)
	}
	return append(fields, c.reg.Fields()...)
}

// SchemaDims returns the wrapped backend's schema.
func (c *Cache) SchemaDims() ([]string, []int) { return c.inner.SchemaDims() }

// --- keys -------------------------------------------------------------
//
// Keys are built by appending into a caller-owned byte buffer and looked
// up with the compiler's zero-copy map[string] access on a []byte
// conversion, so the hit path — the one every cached query takes —
// constructs no garbage. The string materializes only when an entry is
// actually inserted (the miss path, which already pays a backend call).

// appendGroupByKey appends the cache key for a group-by over dims. When
// dims resolve to the set dset (haveSet), the key names them in schema
// order, the order of the backend's table, so GROUPBY b,a and GROUPBY a,b
// share one entry; otherwise it keeps the order given.
func (c *Cache) appendGroupByKey(dst []byte, dims []string, dset lattice.DimSet, haveSet bool) []byte {
	dst = append(dst, 'G', ' ')
	if haveSet {
		dims = c.names
	}
	sep := false
	for i, d := range dims {
		if haveSet && !dset.Has(i) {
			continue
		}
		if sep {
			dst = append(dst, ',')
		}
		dst, sep = append(dst, d...), true
	}
	return dst
}

// appendValueKey appends the cache key for a single-cell VALUE lookup.
func appendValueKey(dst []byte, dims []string, coords []int) []byte {
	dst = append(dst, 'V', ' ')
	for i, d := range dims {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, d...)
	}
	dst = append(dst, ' ')
	for i, v := range coords {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return dst
}

// groupByKey is the string key of the group-by over dset, used off the
// hot path (pin selection, projection inserts).
//
//cubelint:ignore hot-conv string form is only used off the hot path
func (c *Cache) groupByKey(dset lattice.DimSet) string {
	return string(c.appendGroupByKey(nil, nil, dset, true))
}

// totalKey is the grand-total entry's key.
var totalKey = []byte("T")

// --- locked helpers ---------------------------------------------------

// snapshotEpochs copies the epochs guarding the given fan-out (nil =
// every block) under the lock.
func (c *Cache) snapshotEpochs(blocks []int) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if blocks == nil {
		return append([]uint64(nil), c.epochs...)
	}
	snap := make([]uint64, len(blocks))
	for i, b := range blocks {
		if b >= 0 && b < len(c.epochs) {
			snap[i] = c.epochs[b]
		}
	}
	return snap
}

// epochsUnchangedLocked reports whether the guard epochs still match.
// Fail-closed: a snapshot whose shape no longer fits the epoch guard (a
// plan change resized it, or a block index left the valid range) counts
// as changed — an unverifiable fill must not be kept.
func (c *Cache) epochsUnchangedLocked(blocks []int, snap []uint64) bool {
	if blocks == nil {
		if len(snap) != len(c.epochs) {
			return false
		}
		for i, e := range c.epochs {
			if snap[i] != e {
				return false
			}
		}
		return true
	}
	for i, b := range blocks {
		if b < 0 || b >= len(c.epochs) || c.epochs[b] != snap[i] {
			return false
		}
	}
	return true
}

// lookup returns the entry for key, refreshing its LRU position. The
// key is a byte view so hit-path callers can probe without materializing
// a string: the string(key) conversion in a map index expression does
// not allocate.
func (c *Cache) lookup(key []byte) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(key)]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.hits.Inc()
	return e, true
}

// findAncestorTable returns a copy-safe reference to the smallest
// cached group-by whose dimension set covers want. Called on the miss
// path; the returned table is immutable once cached, so projecting
// outside the lock is safe.
func (c *Cache) findAncestorTable(want lattice.DimSet) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for _, e := range c.entries {
		if !e.isGroupBy || e.table == nil {
			continue
		}
		if want&e.dset != want {
			continue
		}
		if best == nil || e.cells < best.cells {
			best = e
		}
	}
	if best == nil {
		return nil, false
	}
	if best.elem != nil {
		c.lru.MoveToFront(best.elem)
	}
	return best, true
}

// insert adds a filled entry if its guard epochs did not move while the
// backend was queried; it reports whether the entry was kept.
func (c *Cache) insert(e *entry, snap []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.epochsUnchangedLocked(e.blocks, snap) {
		c.rejectedFills.Inc()
		return false
	}
	if old, ok := c.entries[e.key]; ok {
		c.removeLocked(old)
	}
	if _, pin := c.pinnedKeys[e.key]; pin && e.isGroupBy {
		e.pinned = true
	}
	c.entries[e.key] = e
	if e.pinned {
		e.elem = nil
	} else {
		e.elem = c.lru.PushFront(e)
		c.totalCells += e.cells
	}
	c.fills.Inc()
	c.evictLocked()
	c.updateGaugesLocked()
	return true
}

// removeLocked detaches an entry from the map, list, and cell budget.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		c.totalCells -= e.cells
		e.elem = nil
	}
}

// evictLocked enforces MaxEntries and MaxCells over unpinned entries.
func (c *Cache) evictLocked() {
	for c.lru.Len() > 0 &&
		(len(c.entries) > c.cfg.MaxEntries || c.totalCells > c.cfg.MaxCells) {
		tail := c.lru.Back()
		c.removeLocked(tail.Value.(*entry))
		c.evictions.Inc()
	}
}

func (c *Cache) updateGaugesLocked() {
	c.entriesGauge.Set(int64(len(c.entries)))
	c.cellsGauge.Set(c.totalCells)
}

// InvalidateBlock drops every entry whose fan-out touched block b and
// bumps b's epoch, rejecting any in-flight fill that read before the
// ingest landed. Wrap wires it to an IngestNotifier's feed.
func (c *Cache) InvalidateBlock(b int) { c.invalidateRows(b, nil) }

// invalidateRows handles one applied run in block b whose rows are known
// (nil: unknown). It bumps b's epoch, exactly as for any event, and drops
// each entry whose fan-out touched b unless the entry has a box and no
// row lies inside it. Wrap wires it to a RowNotifier's feed.
func (c *Cache) invalidateRows(b int, rows []server.Row) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b < 0 || b >= len(c.epochs) {
		// Unknown block: be safe, drop everything.
		c.invalidateAllLocked()
		return
	}
	c.epochs[b]++
	for _, e := range c.entries {
		if !(e.blocks == nil || containsInt(e.blocks, b)) {
			continue
		}
		if rows == nil || c.boxOf(e) == nil || anyRowInside(rows, e.box) {
			c.removeLocked(e)
			c.invalidations.Inc()
		}
	}
	c.updateGaugesLocked()
}

// boxOf returns e's box. A QUERY entry's is parsed from its statement on
// the first event that asks, which keeps the parser off the read path; a
// statement QueryBox rejects keeps no box, so any row drops it.
func (c *Cache) boxOf(e *entry) []parcube.Range {
	if e.box == nil && strings.HasPrefix(e.key, "Q ") {
		e.box, _ = parcube.QueryBox(e.key[2:], c.names, c.sizes)
	}
	return e.box
}

// anyRowInside reports whether some row lies in the box; a row of
// another rank counts as inside.
func anyRowInside(rows []server.Row, box []parcube.Range) bool {
	return slices.ContainsFunc(rows, func(r server.Row) bool {
		if len(r.Coords) != len(box) {
			return true
		}
		for i, x := range r.Coords {
			if x < box[i].Lo || x >= box[i].Hi {
				return false
			}
		}
		return true
	})
}

// InvalidateAll drops everything and bumps every epoch.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateAllLocked()
}

func (c *Cache) invalidateAllLocked() {
	for i := range c.epochs {
		c.epochs[i]++
	}
	for _, e := range c.entries {
		c.removeLocked(e)
		c.invalidations.Inc()
	}
	c.updateGaugesLocked()
}

// containsInt reports membership in a sorted block list.
func containsInt(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// --- query surface ----------------------------------------------------

// Total answers the grand total, cached under every block's epoch.
//
//cubelint:hotpath cached-query serving path
func (c *Cache) Total() (float64, error) {
	c.maybeFlushFallback()
	if e, ok := c.lookup(totalKey); ok {
		return e.scalar, nil
	}
	snap := c.snapshotEpochs(nil)
	v, err := c.inner.Total()
	if err != nil {
		return 0, err
	}
	c.insert(&entry{key: "T", scalar: v, cells: 1}, snap)
	return v, nil
}

// dimSetOf resolves a dimension list to a lattice set; ok is false for
// unknown or repeated names (the backend then produces the error).
func (c *Cache) dimSetOf(dims []string) (lattice.DimSet, bool) {
	if len(c.sizes) > lattice.MaxDims {
		return 0, false
	}
	var s lattice.DimSet
	for _, d := range dims {
		axis := -1
		for j, n := range c.names {
			if n == d {
				axis = j
				break
			}
		}
		if axis < 0 || s.Has(axis) {
			return 0, false
		}
		s = s.With(axis)
	}
	return s, true
}

// GroupBy answers a group-by from the cache, a projected cached
// ancestor, or the backend (filling the cache).
//
//cubelint:hotpath cached-query serving path
func (c *Cache) GroupBy(dims ...string) (server.Result, error) {
	c.maybeFlushFallback()
	dset, haveSet := c.dimSetOf(dims)
	kb := c.appendGroupByKey(make([]byte, 0, 64), dims, dset, haveSet)
	if e, ok := c.lookup(kb); ok && e.table != nil {
		return e.table, nil
	}
	//cubelint:ignore hot-conv miss path: the key is materialized once to own the cache entry
	key := string(kb)
	if haveSet && c.planner != nil {
		if parent, ok := c.findAncestorTable(dset); ok && parent.key != key {
			return c.projectChild(parent, dset, key), nil
		}
	}
	snap := c.snapshotEpochs(nil)
	tbl, err := c.inner.GroupBy(dims...)
	if err != nil {
		return nil, err
	}
	owned := server.TableOf(tbl)
	e := &entry{key: key, dset: dset, isGroupBy: haveSet, table: owned, cells: int64(owned.Size())}
	c.insert(e, snap)
	return owned, nil
}

// projectChild folds a cached ancestor down to the group-by over want
// and caches the result under the same epoch guard as the parent. Both
// tables have their axes in schema order, so the child keeps the
// parent's axes that want names, in order.
func (c *Cache) projectChild(parent *entry, want lattice.DimSet, key string) server.Result {
	keep := make([]int, 0, want.Count())
	for i, axis := range parent.dset.Dims() {
		if want.Has(axis) {
			keep = append(keep, i)
		}
	}
	snap := c.snapshotEpochs(nil)
	child, _ := array.ProjectDense(parent.table.Dense(), keep, c.op)
	c.ancestorHits.Inc()
	tbl := server.NewTable(child)
	c.insert(&entry{key: key, dset: want, isGroupBy: true, table: tbl, cells: int64(tbl.Size())}, snap)
	return tbl
}

// Query caches parcube query-language statements by their literal text.
//
//cubelint:hotpath cached-query serving path
func (c *Cache) Query(stmt string) (server.Result, error) {
	c.maybeFlushFallback()
	kb := append(append(make([]byte, 0, 64), 'Q', ' '), stmt...)
	if e, ok := c.lookup(kb); ok && e.table != nil {
		return e.table, nil
	}
	snap := c.snapshotEpochs(nil)
	tbl, err := c.inner.Query(stmt)
	if err != nil {
		return nil, err
	}
	owned := server.TableOf(tbl)
	//cubelint:ignore hot-conv miss path: the key is materialized once to own the cache entry
	c.insert(&entry{key: string(kb), table: owned, cells: int64(owned.Size())}, snap)
	return owned, nil
}

// Value answers a single-cell lookup; with a Planner the entry is
// guarded (and invalidated) by exactly the owning blocks.
//
//cubelint:hotpath cached-query serving path
func (c *Cache) Value(dims []string, coords []int) (float64, error) {
	c.maybeFlushFallback()
	// One order for the key, the routing, the backend and the cell box.
	dims, coords = server.SchemaOrder(c.names, dims, coords)
	kb := appendValueKey(make([]byte, 0, 96), dims, coords)
	if e, ok := c.lookup(kb); ok {
		return e.scalar, nil
	}
	var blocks []int
	if c.planner != nil {
		owning, err := c.planner.BlocksForValue(dims, coords)
		if err != nil {
			return 0, err
		}
		blocks = owning
	}
	snap := c.snapshotEpochs(blocks)
	v, err := c.innerValue(dims, coords)
	if err != nil {
		return 0, err
	}
	//cubelint:ignore hot-conv miss path: the key is materialized once to own the cache entry
	c.insert(&entry{key: string(kb), scalar: v, cells: 1, blocks: blocks, box: c.cellBox(dims, coords)}, snap)
	return v, nil
}

// cellBox is the box a VALUE reads: its coordinate on each named
// dimension, every other dimension whole. Value has put the names into
// schema order; the box is nil when they are not (an unknown or repeated
// name), for such a lookup fails at the backend anyway.
func (c *Cache) cellBox(dims []string, coords []int) []parcube.Range {
	if len(dims) != len(coords) {
		return nil
	}
	box := make([]parcube.Range, len(c.sizes))
	for i, n := range c.sizes {
		box[i] = parcube.Range{Lo: 0, Hi: n}
	}
	prev := -1
	for k, d := range dims {
		i := slices.Index(c.names, d)
		if i <= prev {
			return nil
		}
		box[i] = parcube.Range{Lo: coords[k], Hi: coords[k] + 1}
		prev = i
	}
	return box
}

// innerValue asks the backend for one cell, falling back to a (cached)
// group-by for backends without the VALUE fast path.
func (c *Cache) innerValue(dims []string, coords []int) (float64, error) {
	if vb, ok := c.inner.(server.ValueBackend); ok {
		return vb.Value(dims, coords)
	}
	if len(dims) == 0 {
		return c.Total()
	}
	tbl, err := c.GroupBy(dims...)
	if err != nil {
		return 0, err
	}
	return server.Lookup(tbl, coords)
}

// Delta forwards ingest to the backend. Backends that publish ingest
// events (IngestNotifier) have already invalidated exactly the touched
// blocks by the time the call returns; for the rest the whole cache is
// dropped on any applied delta.
func (c *Cache) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	db, ok := c.inner.(server.DeltaBackend)
	if !ok {
		return 0, false, fmt.Errorf("qcache: backend does not support ingest")
	}
	appliedLSN, applied, err := db.Delta(rows, lsn)
	if err == nil && applied {
		c.noteFallbackWrite()
	}
	return appliedLSN, applied, err
}

// DeltaBatch forwards batched ingest to the backend, preserving the
// server's native-batch fast path through the cache. Invalidation
// granularity matches Delta: an IngestNotifier backend has already
// invalidated exactly the touched blocks (once per committed run per
// block), anyone else costs the whole cache when any record applied.
func (c *Cache) DeltaBatch(recs []server.LoggedDelta) (uint64, int, error) {
	bb, ok := c.inner.(server.DeltaBatchBackend)
	if !ok {
		return 0, 0, fmt.Errorf("qcache: backend does not support batched ingest")
	}
	lastLSN, applied, err := bb.DeltaBatch(recs)
	if applied > 0 {
		c.noteFallbackWrite()
	}
	return lastLSN, applied, err
}

// noteFallbackWrite records an applied delta through a backend that
// publishes no ingest events. Instead of dropping the cache here — once
// per delta, which under a write burst is an invalidation storm doing
// nothing a single drop wouldn't — the write marks the cache dirty and
// the next read front flushes once. The mark is set before the delta's
// acknowledgement reaches the client, so no read that starts after the
// ack can observe pre-delta cached state.
func (c *Cache) noteFallbackWrite() {
	if !c.fallbackMode {
		return
	}
	c.fallbackDirty.Store(true)
	c.fallbackDeferred.Inc()
}

// maybeFlushFallback runs at every read front: if notifier-less writes
// marked the cache dirty since the last read, drop everything once.
func (c *Cache) maybeFlushFallback() {
	if !c.fallbackMode {
		return
	}
	if c.fallbackDirty.CompareAndSwap(true, false) {
		c.InvalidateAll()
		c.fallbackFlushes.Inc()
	}
}
