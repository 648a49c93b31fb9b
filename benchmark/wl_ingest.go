package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcube"
	"parcube/internal/server"
	"parcube/internal/shard"
)

const (
	// ingestBatch is the number of single-row records per DELTABATCH. One
	// ack applies every record on both replicas of its block, all in
	// this process, so a batch of 4 already takes ~0.1 s here; a larger
	// one would leave a run too few acks for a p95.
	ingestBatch = 4
	// tailRecords is the fixed number of records ingested after the
	// checkpoint, which the restarted replicas then replay.
	tailRecords = 64
	// recoverRepeats is how often each crashed replica is restarted.
	recoverRepeats = 3
)

// ingester sends DELTABATCH requests on one mux client and keeps every
// acknowledged row for the final check.
type ingester struct {
	client *server.MuxClient
	gen    *deltaGen

	mu    sync.Mutex
	acked []server.Row

	attempted, failed atomic.Int64
	firstErr          atomic.Value
}

// send ingests one batch and returns the ack latency.
func (in *ingester) send(n int) (time.Duration, bool) {
	rows := in.gen.batch(n)
	body := deltaBatchBody(rows)
	in.attempted.Add(1)
	start := time.Now()
	resp, err := in.client.Session().Do(body)
	lat := time.Since(start)
	if err == nil {
		err = checkBatchAck(resp, n)
	}
	if err != nil {
		in.failed.Add(1)
		in.firstErr.CompareAndSwap(nil, err.Error())
		return lat, false
	}
	in.mu.Lock()
	in.acked = append(in.acked, rows...)
	in.mu.Unlock()
	return lat, true
}

// checkBatchAck accepts "OK lsn=<n> applied=<want>".
func checkBatchAck(resp []byte, want int) error {
	line := firstLine(resp)
	if !strings.HasPrefix(line, "OK ") {
		return fmt.Errorf("DELTABATCH reply %q", line)
	}
	for _, f := range strings.Fields(line[3:]) {
		if v, ok := strings.CutPrefix(f, "applied="); ok {
			if n, err := strconv.Atoi(v); err != nil || n != want {
				return fmt.Errorf("DELTABATCH applied %q of %d records", v, want)
			}
			return nil
		}
	}
	return fmt.Errorf("DELTABATCH reply %q has no applied count", line)
}

// takeAcked returns the rows acknowledged since the last call.
func (in *ingester) takeAcked() []server.Row {
	in.mu.Lock()
	defer in.mu.Unlock()
	rows := in.acked
	in.acked = nil
	return rows
}

// ack is one acknowledged batch of the measured phase.
type ack struct {
	at, ms float64
	// duringCheckpoint marks an ack during which some node published a
	// checkpoint: the foreground stall background work causes.
	duringCheckpoint bool
}

// runIngest drives writes beside reads against four durable nodes, then
// runs a fixed tail: checkpoint, a 64-record log tail, crash and restart
// of one replica per block, a rejoin, a check of every acknowledged
// delta, and a live join of a fifth node.
func runIngest(cfg runConfig, res *result) (err error) {
	stmts := genStatements(cfg.seed, serveSpecs["serve_hot"].statements)
	// The data changes under the reader, so its replies are checked for
	// an OK table only; exactness is checked once writes have stopped.
	load := newQueryLoad(stmts, nil, cfg.tr)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(scratch)) }()

	var st *stack
	setups := 0
	setup, err := timeSetups(cfg,
		func() (err error) {
			setups++
			spec := stackSpec{
				durable: true, dataDir: filepath.Join(scratch, fmt.Sprintf("cluster%d", setups)),
				tr: cfg.tr, keys: load.keys(), checkpointEvery: checkpointEvery,
			}
			if cfg.mini {
				spec.checkpointEvery = canaryCheckpointEvery
			}
			st, err = startStack(cfg.seed, spec, cfg.clients)
			return err
		},
		func() error { return st.close() })
	if err != nil {
		return err
	}
	defer func() { res.closeErr(st.close()) }()
	res.setupS = setup

	in := &ingester{client: st.clients[0], gen: newDeltaGen(cfg.seed)}
	readers := st.clients[len(st.clients)-1:]
	pick := []picker{newPicker(cfg.seed, 0, len(stmts), serveSpecs["serve_hot"].zipfS)}

	// Main phase: one closed-loop writer beside one closed-loop reader.
	mainD := cfg.seconds * 3 / 4
	warm := mainD / 10
	var acks []ack
	var reads []sample
	cfg.tr.setPhase("closed")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		acks = writeLoop(in, st, warm, mainD-warm)
	}()
	reads, readElapsed := load.closedLoop(readers, pick, warm, mainD-warm)
	wg.Wait()
	cfg.tr.setPhase("tail")
	if len(acks) == 0 || len(reads) == 0 {
		return fmt.Errorf("main phase completed %d acks and %d reads: %v %v", len(acks), len(reads), in.firstErr.Load(), load.firstErr.Load())
	}

	tail, err := ingestTail(cfg, st, in, load, res)
	if err != nil {
		return err
	}
	res.measuredDone()

	res.attempted = in.attempted.Load() + load.attempted.Load() + tail.attempted
	res.failed = in.failed.Load() + load.failed.Load()
	for _, e := range []any{in.firstErr.Load(), load.firstErr.Load()} {
		if e != nil {
			res.note("first failure: %v", e)
		}
	}

	ackMs := make([]float64, len(acks))
	for i, a := range acks {
		ackMs[i] = a.ms
	}
	ackSorted := sortedCopy(ackMs)
	recPerS := float64(len(acks)*ingestBatch) / (mainD - warm).Seconds()
	readP50 := percentile(sortedCopy(lats(reads, func(s sample) float32 { return s.lat })), 0.5)

	res.detail["ingest_rec_per_s"] = recPerS
	res.detail["ingest_ack_p50_ms"] = percentile(ackSorted, 0.5)
	res.detail["ingest_ack_p95_ms"] = percentile(ackSorted, 0.95)
	res.detail["query_qps"] = float64(len(reads)) / readElapsed
	res.detail["query_p50_us"] = readP50
	res.detail["recover_s"] = tail.recoverS
	res.detail["wal_bytes_per_rec"] = tail.walBytesPerRec

	res.e2e["ops_per_s"] = recPerS
	res.e2e["op_p50_ms"] = percentile(ackSorted, 0.5)
	res.e2e["op_tail_ms"] = percentile(ackSorted, 0.95)
	res.e2e["alt_p50_ms"] = readP50 / 1e3
	res.e2e["build_comm_elems"] = float64(st.refRep.CommElements)
	res.e2e["build_peak_elems"] = float64(st.refRep.MaxPeakMemoryElements)
	res.ops = int64(len(acks) * ingestBatch)

	if cfg.tr != nil {
		spans := cfg.tr.snapshot()
		if err := serveLayerMetrics(cfg, st, load, spans, reads, nil, res); err != nil {
			return err
		}
		return ingestLayerMetrics(cfg, st, scratch, spans, acks, tail, res)
	}
	return nil
}

// writeLoop sends batches back to back for warm+d and returns the acks
// of the last d.
func writeLoop(in *ingester, st *stack, warm, d time.Duration) []ack {
	ckpts := make([]func() int64, len(st.nodes))
	for i, n := range st.nodes {
		ckpts[i] = n.RecoveryMetrics().Counter("recovery.checkpoints").Value
	}
	published := func() (n int64) {
		for _, c := range ckpts {
			n += c()
		}
		return n
	}
	var acks []ack
	measureFrom := time.Now().Add(warm)
	deadline := measureFrom.Add(d)
	for {
		sent := time.Now()
		if !sent.Before(deadline) {
			return acks
		}
		before := published()
		lat, ok := in.send(ingestBatch)
		if !ok || sent.Before(measureFrom) {
			continue
		}
		acks = append(acks, ack{
			at: sent.Sub(measureFrom).Seconds(), ms: float64(lat.Nanoseconds()) / 1e6,
			duringCheckpoint: published() != before,
		})
	}
}

// tailResult is what the fixed tail measured.
type tailResult struct {
	attempted        int64 // requests of the two checks
	recoverS         float64
	walBytesPerRec   float64
	checkpointMs     float64
	replayRecPerS    float64
	openMs           float64
	rejoinMs         float64
	migrateS         float64
	failedDuringJoin int64
}

// ingestTail runs the fixed work that follows the main phase, in order:
// each step leaves the cluster as the next one needs it.
func ingestTail(cfg runConfig, st *stack, in *ingester, load *queryLoad, res *result) (tailResult, error) {
	var t tailResult
	steps := []func(runConfig, *stack, *ingester, *tailResult) error{
		tailCheckpoint, tailLogGrowth, tailRecover, tailRejoin,
	}
	for _, step := range steps {
		if err := step(cfg, st, in, &t); err != nil {
			return t, err
		}
	}
	// Every acknowledged delta must be there, on the cluster and on each
	// restarted replica.
	if err := applyAcked(st.ref, in.takeAcked()); err != nil {
		return t, err
	}
	t.attempted += verifyCluster(st, res, "after crash and restart")
	blocks := st.plan.NumBlocks()
	for id := blocks; id < 2*blocks; id++ {
		verifyReplica(st, id, id-blocks, res)
	}
	joinID, err := tailJoin(cfg, st, in, load, &t)
	if err != nil {
		return t, err
	}
	if err := applyAcked(st.ref, in.takeAcked()); err != nil {
		return t, err
	}
	t.attempted += verifyCluster(st, res, "after the join")
	verifyReplica(st, joinID, 0, res)
	return t, nil
}

// tailCheckpoint checkpoints every node, so the restarts that follow
// replay the tail and nothing else.
func tailCheckpoint(cfg runConfig, st *stack, _ *ingester, t *tailResult) error {
	var ms []float64
	for _, n := range st.nodes {
		start := time.Now()
		if err := n.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint of node %d: %w", n.ID, err)
		}
		cfg.tr.record("recovery.checkpoint", -1, start, time.Now())
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	t.checkpointMs = median(ms)
	return nil
}

// tailLogGrowth ingests exactly tailRecords more records and measures
// what they add to the logs.
func tailLogGrowth(_ runConfig, st *stack, in *ingester, t *tailResult) error {
	before, err := walBytes(st)
	if err != nil {
		return err
	}
	for sent := 0; sent < tailRecords; sent += ingestBatch {
		if _, ok := in.send(ingestBatch); !ok {
			return fmt.Errorf("tail ingest failed: %v", in.firstErr.Load())
		}
	}
	after, err := walBytes(st)
	if err != nil {
		return err
	}
	t.walBytesPerRec = float64(after-before) / tailRecords
	return nil
}

// tailRecover crashes one replica per block and restarts it from its
// data dir alone: checkpoint load plus replay of its share of the tail.
func tailRecover(cfg runConfig, st *stack, _ *ingester, t *tailResult) error {
	blocks := st.plan.NumBlocks()
	var recoverS, replayS, replayed []float64
	repeats := recoverRepeats
	if cfg.mini {
		repeats = 1
	}
	for rep := 0; rep < repeats; rep++ {
		for id := blocks; id < 2*blocks; id++ {
			start := time.Now()
			st.nodes[id].Crash()
			n, err := reopenNode(st, id)
			if err != nil {
				return err
			}
			cfg.tr.record("shard.StartDurableNode", -1, start, time.Now())
			recoverS = append(recoverS, time.Since(start).Seconds())
			// One Open, so the histogram's exact maximum is its time.
			flat := n.RecoveryMetrics().Flatten()
			replayS = append(replayS, float64(flat["recovery.replay_ns_max"])/1e9)
			replayed = append(replayed, float64(flat["recovery.replayed_records"]))
		}
	}
	t.recoverS = median(recoverS)
	t.openMs = median(replayS) * 1e3
	if s := sum(replayS); s > 0 {
		t.replayRecPerS = sum(replayed) / s
	}
	return nil
}

// tailRejoin crashes a replica, writes past it so the coordinator marks
// it down, restarts it and waits until the coordinator has caught it up
// from its peer and re-admitted it. (The first write after tailRecover
// also finds the coordinator's pooled connections to the restarted
// replicas dead, marks those down and re-admits them the same way.)
func tailRejoin(_ runConfig, st *stack, in *ingester, t *tailResult) error {
	last := 2*st.plan.NumBlocks() - 1
	st.nodes[last].Crash()
	for tries := 0; replicaLive(st, last); tries++ {
		if _, ok := in.send(ingestBatch); !ok || tries > 50 {
			return fmt.Errorf("ingest with one replica down: %v", in.firstErr.Load())
		}
	}
	if _, err := reopenNode(st, last); err != nil {
		return err
	}
	start := time.Now()
	for !allLive(st) {
		if time.Since(start) > requestTimeout {
			return errors.New("restarted replica was not re-admitted")
		}
		time.Sleep(time.Millisecond)
	}
	t.rejoinMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return nil
}

// tailJoin joins an empty fifth node as a third replica of block 0 while
// a writer and a reader keep going, and returns its node id.
func tailJoin(cfg runConfig, st *stack, in *ingester, load *queryLoad, t *tailResult) (int, error) {
	plan5, _, err := st.plan.Rebalance(st.plan.Nodes + 1)
	if err != nil {
		return 0, err
	}
	joinID := st.plan.Nodes
	joiner, err := shard.StartDurableNode(plan5, joinID, parcube.NewDataset(st.ds.Schema()), "127.0.0.1:0",
		st.spec.durableOptions(st.nodeDir(joinID)))
	if err != nil {
		return 0, fmt.Errorf("starting the joining node: %w", err)
	}
	st.nodes = append(st.nodes, joiner)
	failedBefore := load.failed.Load() + in.failed.Load()
	reader := st.clients[len(st.clients)-1]
	pick := newPicker(cfg.seed, 7, len(load.stmts), 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, traffic := range []func(){
		func() { in.send(ingestBatch) },
		func() { load.one(reader, pick()) },
	} {
		wg.Add(1)
		go func(traffic func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					traffic()
				}
			}
		}(traffic)
	}
	start := time.Now()
	err = st.mgr.Join(joiner.Addr())
	t.migrateS = time.Since(start).Seconds()
	cfg.tr.record("elastic.Join", -1, start, time.Now())
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, fmt.Errorf("joining node %d: %w", joinID, err)
	}
	t.failedDuringJoin = load.failed.Load() + in.failed.Load() - failedBefore
	return joinID, nil
}

// walBytes sums the sizes of every node's wal/ directory.
func walBytes(st *stack) (int64, error) {
	var total int64
	for _, n := range st.nodes {
		err := filepath.WalkDir(filepath.Join(st.nodeDir(n.ID), "wal"), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// replicaLive reports whether the coordinator still counts node id's
// replica among the live ones of its group.
func replicaLive(st *stack, id int) bool {
	for _, g := range st.coord.Groups() {
		for _, addr := range g.Addrs {
			if addr == st.nodes[id].Addr() {
				return g.Live == len(g.Addrs)
			}
		}
	}
	return false
}

// allLive reports whether no replica of any group is marked down.
func allLive(st *stack) bool {
	for _, g := range st.coord.Groups() {
		if g.Live != len(g.Addrs) {
			return false
		}
	}
	return true
}

// reopenNode restarts a crashed node on the same address from its data
// directory alone.
func reopenNode(st *stack, id int) (*shard.Node, error) {
	n, err := shard.StartDurableNode(st.plan, id, nil, st.nodes[id].Addr(), st.spec.durableOptions(st.nodeDir(id)))
	if err != nil {
		return nil, fmt.Errorf("restarting node %d: %w", id, err)
	}
	st.nodes[id] = n
	return n, nil
}

// applyAcked folds acknowledged rows into the local reference cube.
func applyAcked(ref *parcube.Cube, rows []server.Row) error {
	if len(rows) == 0 {
		return nil
	}
	delta := parcube.NewDataset(ref.Schema())
	for _, r := range rows {
		if err := delta.Add(r.Value, r.Coords...); err != nil {
			return err
		}
	}
	_, err := ref.Update(delta)
	return err
}

// verifyGroupBys are the three group-bys checked beside TOTAL.
var verifyGroupBys = [][]string{{"a", "b"}, {"c", "d"}, {"a", "c", "d"}}

// verifyCluster compares TOTAL and three group-bys, asked over mux like
// any client would, with the reference: base data plus every
// acknowledged delta. It returns the number of requests it made.
func verifyCluster(st *stack, res *result, when string) int64 {
	c := st.clients[0]
	total, err := c.Total()
	if err != nil {
		res.bad("%s: TOTAL: %v", when, err)
	} else if want := st.ref.Total(); total != want {
		res.bad("%s: TOTAL = %v, want %v: an acknowledged delta was lost or applied twice", when, total, want)
	}
	for _, dims := range verifyGroupBys {
		tbl, err := st.ref.GroupBy(dims...)
		if err != nil {
			res.bad("%s: reference GROUPBY %v: %v", when, dims, err)
			continue
		}
		resp, err := c.Session().Do([]byte("GROUPBY " + strings.Join(dims, ",") + "\n"))
		if err != nil {
			res.bad("%s: GROUPBY %v: %v", when, dims, err)
		} else if !bytes.Equal(resp, expectedReply(tbl)) {
			res.bad("%s: GROUPBY %v differs from the reference", when, dims)
		}
	}
	return int64(1 + len(verifyGroupBys))
}

// verifyReplica asks node id and its block peer directly and compares:
// the coordinator prefers the first replica, so only a direct question
// shows what a restarted or joined replica holds.
func verifyReplica(st *stack, id, peer int, res *result) {
	answers := func(n *shard.Node) (total float64, rows []server.Row, err error) {
		cl, err := server.DialTimeout(n.Addr(), dialTimeout)
		if err != nil {
			return 0, nil, err
		}
		cl.SetTimeout(requestTimeout)
		total, err = cl.Total()
		if err == nil {
			rows, err = cl.GroupBy("a", "c", "d")
		}
		return total, rows, errors.Join(err, cl.Close())
	}
	gotTotal, gotRows, err := answers(st.nodes[id])
	if err != nil {
		res.bad("asking node %d: %v", id, err)
		return
	}
	wantTotal, wantRows, err := answers(st.nodes[peer])
	if err != nil {
		res.bad("asking node %d: %v", peer, err)
		return
	}
	if gotTotal != wantTotal || len(gotRows) != len(wantRows) {
		res.bad("node %d holds total %v, its peer %d holds %v", id, gotTotal, peer, wantTotal)
		return
	}
	for i := range gotRows {
		if gotRows[i].Value != wantRows[i].Value {
			res.bad("node %d differs from its peer %d at %v", id, peer, gotRows[i].Coords)
			return
		}
	}
}

// ingestLayerMetrics reports the write path's layers.
func ingestLayerMetrics(cfg runConfig, st *stack, scratch string, spans []span, acks []ack, t tailResult, res *result) error {
	L := res.layer
	var err error
	if L["parcube.update_ms"], err = probeUpdate(st.ds, cfg.seed, ingestBatch); err != nil {
		return err
	}
	if L["parcube.update_ms_1row"], err = probeUpdate(st.ds, cfg.seed, 1); err != nil {
		return err
	}
	recordBytes := len(deltaBatchBody(newDeltaGen(cfg.seed).batch(1))) - len("DELTABATCH 1\n1 0\n.\n")
	if L["wal.append_sync_us"], err = probeWalAppend(scratch, recordBytes); err != nil {
		return err
	}

	var deltaMs []float64
	for _, s := range spans {
		if s.Name == spanDelta && s.Phase == "closed" {
			deltaMs = append(deltaMs, float64(s.dur())/1e6)
		}
	}
	L["shard.delta_span_ms"] = median(deltaMs)
	L["shard.ingest_batch_size_p50"] = float64(st.coord.Metrics().Flatten()["ingest_batch_size_p50"])
	L["shard.rejoin_ms"] = t.rejoinMs

	// Counts from the nodes' own registries. Restarted nodes start new
	// registries, so these cover the first replicas for the whole run.
	var groups, records, ckpts, ckptBytes int64
	groupP50 := 0.0
	for _, n := range st.nodes[:st.plan.NumBlocks()] {
		flat := n.RecoveryMetrics().Flatten()
		groups += flat["wal.group_size_count"]
		groupP50 = max(groupP50, float64(flat["wal.group_size_p50"]))
		records += int64(n.LastLSN())
		ckpts += flat["recovery.checkpoints"]
		ckptBytes += flat["recovery.checkpoint_bytes"]
	}
	L["wal.group_size_p50"] = groupP50
	if records > 0 {
		L["wal.syncs_per_rec"] = float64(groups) / float64(records)
	}
	L["wal.bytes_per_rec"] = t.walBytesPerRec
	L["recovery.checkpoint_ms"] = t.checkpointMs
	L["recovery.checkpoints"] = float64(ckpts)
	if ckpts > 0 {
		L["recovery.checkpoint_bytes"] = float64(ckptBytes) / float64(ckpts)
	}
	L["recovery.open_ms"] = t.openMs
	L["recovery.replay_rec_per_s"] = t.replayRecPerS
	stall := 0.0
	for _, a := range acks {
		if a.duringCheckpoint {
			stall = max(stall, a.ms)
		}
	}
	L["recovery.stall_ack_max_ms"] = stall

	flat := st.coord.Metrics().Flatten()
	L["elastic.migrate_s"] = t.migrateS
	if t.migrateS > 0 {
		// Over the whole migration: the manager exposes no finer timing.
		L["elastic.ship_mb_per_s"] = float64(flat["elastic.bytes_shipped"]) / 1e6 / t.migrateS
		L["elastic.replay_rec_per_s"] = float64(flat["elastic.records_replayed"]) / t.migrateS
	}
	L["elastic.cutover_ms"] = float64(flat["elastic.cutover_ns_max"]) / 1e6
	L["elastic.failed_queries_during"] = float64(t.failedDuringJoin)
	return nil
}
