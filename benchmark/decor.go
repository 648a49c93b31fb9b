package main

import (
	"time"

	"parcube/internal/agg"
	"parcube/internal/qcache"
	"parcube/internal/server"
	"parcube/internal/shard"
)

// The traced run places two decorators in the serving stack: one between
// the server and the cache, one between the cache and the coordinator.
// The server and the cache discover optional features of their backend
// by type assertion, so each decorator is written against the concrete
// type it wraps and forwards every optional method that type has; a
// decorator that dropped one would silently switch the stack to a
// fallback (invalidate-all, no VALUE pruning) in the traced run only.
// TestDecoratorsForwardOptionalInterfaces pins the sets.

// stmtIndex maps a QUERY statement to its index in the run's statement
// set, the key that links a decorator's span to the client request.
type stmtIndex map[string]int32

func (m stmtIndex) key(stmt string) int32 {
	if i, ok := m[stmt]; ok {
		return i
	}
	return -1
}

// cacheDecor sits between server.Server and *qcache.Cache.
type cacheDecor struct {
	inner *qcache.Cache
	tr    *tracer
	keys  stmtIndex
}

func (d *cacheDecor) SchemaDims() ([]string, []int) { return d.inner.SchemaDims() }
func (d *cacheDecor) Total() (float64, error)       { return d.inner.Total() }
func (d *cacheDecor) StatsFields() []string         { return d.inner.StatsFields() }

func (d *cacheDecor) GroupBy(dims ...string) (server.Result, error) {
	return d.inner.GroupBy(dims...)
}

func (d *cacheDecor) Query(stmt string) (server.Result, error) {
	start := time.Now()
	res, err := d.inner.Query(stmt)
	d.tr.record(spanQcache, d.keys.key(stmt), start, time.Now())
	return res, err
}

func (d *cacheDecor) Value(dims []string, coords []int) (float64, error) {
	return d.inner.Value(dims, coords)
}

func (d *cacheDecor) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	return d.inner.Delta(rows, lsn)
}

func (d *cacheDecor) DeltaBatch(recs []server.LoggedDelta) (uint64, int, error) {
	return d.inner.DeltaBatch(recs)
}

// coordDecor sits between *qcache.Cache and *shard.Coordinator.
type coordDecor struct {
	inner *shard.Coordinator
	tr    *tracer
	keys  stmtIndex
}

func (d *coordDecor) SchemaDims() ([]string, []int) { return d.inner.SchemaDims() }
func (d *coordDecor) Total() (float64, error)       { return d.inner.Total() }
func (d *coordDecor) StatsFields() []string         { return d.inner.StatsFields() }

func (d *coordDecor) GroupBy(dims ...string) (server.Result, error) {
	return d.inner.GroupBy(dims...)
}

func (d *coordDecor) Query(stmt string) (server.Result, error) {
	start := time.Now()
	res, err := d.inner.Query(stmt)
	d.tr.record(spanCoord, d.keys.key(stmt), start, time.Now())
	return res, err
}

func (d *coordDecor) Value(dims []string, coords []int) (float64, error) {
	return d.inner.Value(dims, coords)
}

func (d *coordDecor) Delta(rows []server.Row, lsn uint64) (uint64, bool, error) {
	return d.inner.Delta(rows, lsn)
}

func (d *coordDecor) DeltaBatch(recs []server.LoggedDelta) (uint64, int, error) {
	start := time.Now()
	lsn, n, err := d.inner.DeltaBatch(recs)
	d.tr.record(spanDelta, -1, start, time.Now())
	return lsn, n, err
}

// The planner and notifier surfaces the cache looks for.
func (d *coordDecor) NumBlocks() int { return d.inner.NumBlocks() }
func (d *coordDecor) Op() agg.Op     { return d.inner.Op() }

func (d *coordDecor) BlocksForValue(dims []string, coords []int) ([]int, error) {
	return d.inner.BlocksForValue(dims, coords)
}

func (d *coordDecor) OnIngest(fn func(block int))         { d.inner.OnIngest(fn) }
func (d *coordDecor) OnPlanChange(fn func(numBlocks int)) { d.inner.OnPlanChange(fn) }
