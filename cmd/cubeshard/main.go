// Command cubeshard runs one role of a sharded cube-serving cluster.
//
// Shard node: build the sub-cube of this node's block of the fact table
// and serve it (with the SHARDINFO handshake) over TCP:
//
//	cubegen -shape 16x16x16x16 > facts.csv
//	cubeshard -shape 16x16x16x16 -in facts.csv -nodes 4 -replicas 2 -node 0 -addr 127.0.0.1:7071
//	cubeshard -shape 16x16x16x16 -in facts.csv -nodes 4 -replicas 2 -node 1 -addr 127.0.0.1:7072
//	... (one process per node id)
//
// With -data-dir the node is durable: acknowledged DELTA writes go
// through a write-ahead log (fsync policy under -fsync), checkpoints
// trim the log every -checkpoint-every deltas, and a restart recovers
// the cube from the newest checkpoint plus the log tail. After the first
// checkpoint the fact CSV is no longer needed — restart with -in none:
//
//	cubeshard -shape 16x16x16x16 -in facts.csv -data-dir /var/lib/cube/n0 -nodes 4 -replicas 2 -node 0 -addr 127.0.0.1:7071
//	... crash ...
//	cubeshard -shape 16x16x16x16 -in none -data-dir /var/lib/cube/n0 -nodes 4 -replicas 2 -node 0 -addr 127.0.0.1:7071
//
// Coordinator: discover the shards, then answer the ordinary cube
// protocol by scatter-gather with replica failover; durable clusters
// also accept DELTA and re-admit recovered replicas (probing every
// -rejoin-every):
//
//	cubeshard -coordinator -shards 127.0.0.1:7071,127.0.0.1:7072,... -addr 127.0.0.1:7070
//	printf 'TOTAL\nSTATS\nQUIT\n' | nc 127.0.0.1 7070
//
// The coordinator's serving tier is opt-in per feature: -cache-cells
// interposes the hot group-by cache (exact delta invalidation;
// -cache-pin adds a pinned-view budget), -hedge arms second-replica
// scatter reads, -mux-window caps the window granted to MUX protocol
// upgrades, and -max-inflight/-max-queue/-admit-deadline bound
// concurrent execution, shedding excess load with a typed overload
// error. See cmd/cubeload for the matching load generator.
//
// Elastic membership: a durable shard node started with -join announces
// itself to a running coordinator, which ships it the latest checkpoint
// of its block, replays the WAL tail, and cuts reads over atomically —
// growing the cluster live. Start the new node empty (-in none works
// with -join; no fact CSV needed):
//
//	cubeshard -shape 16x16x16x16 -in none -nodes 8 -replicas 2 -node 4 \
//	    -data-dir /var/lib/cube/n4 -addr 127.0.0.1:7075 -join 127.0.0.1:7070
//
// Operator one-shots go through -ctl: drain a node out of the cluster
// (it keeps serving in-flight reads until its last group cuts over), or
// rebalance to a new node count (the planner emits and executes the
// minimal migration set):
//
//	cubeshard -ctl 127.0.0.1:7070 -drain 127.0.0.1:7072
//	cubeshard -ctl 127.0.0.1:7070 -rebalance 6
//
// Every node is given the same fact table and carves out its own block,
// so the cluster needs no separate data-distribution step.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"parcube"
	"parcube/internal/elastic"
	"parcube/internal/mux"
	"parcube/internal/obs"
	"parcube/internal/qcache"
	"parcube/internal/server"
	"parcube/internal/shard"
	"parcube/internal/wal"
)

func main() {
	coordinator := flag.Bool("coordinator", false, "run the coordinator instead of a shard node")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	// Shard-node flags.
	shapeFlag := flag.String("shape", "", "dimension sizes of the fact table, e.g. 16x16x16 (shard mode)")
	in := flag.String("in", "-", "input fact CSV (default stdin; shard mode)")
	nodes := flag.Int("nodes", 1, "total shard nodes in the cluster (shard mode)")
	replicas := flag.Int("replicas", 1, "replication factor: every block lands on at least this many nodes (shard mode)")
	nodeID := flag.Int("node", 0, "this node's id in [0,nodes) (shard mode)")
	// Durability flags (shard mode).
	dataDir := flag.String("data-dir", "", "data directory for the write-ahead log and checkpoints; empty serves in-memory only (shard mode)")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy: always, interval, or never (shard mode, with -data-dir)")
	fsyncEvery := flag.Duration("fsync-every", 100*time.Millisecond, "sync interval under -fsync interval (shard mode)")
	checkpointEvery := flag.Int("checkpoint-every", 1024, "checkpoint and trim the log after this many deltas; 0 only checkpoints on shutdown (shard mode)")
	joinAddr := flag.String("join", "", "coordinator address to announce this node to after startup; the cluster ships it state, so -in none needs no checkpoint (shard mode, with -data-dir)")
	// Coordinator flags.
	shards := flag.String("shards", "", "comma-separated shard node addresses (coordinator mode)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-shard request timeout before failover (coordinator mode)")
	rejoinEvery := flag.Duration("rejoin-every", 100*time.Millisecond, "probe interval for re-admitting recovered replicas; negative disables (coordinator mode)")
	cacheCells := flag.Int64("cache-cells", 0, "hot group-by result cache budget in cells; 0 disables the cache (coordinator mode)")
	cachePin := flag.Int64("cache-pin", 0, "cell budget for benefit-greedy pinned views inside the cache; 0 pins nothing (coordinator mode, with -cache-cells)")
	hedge := flag.Bool("hedge", false, "hedge scatter reads to a second replica after the latency-derived delay (coordinator mode)")
	muxWindow := flag.Int("mux-window", 0, "cap on the per-connection window granted to MUX protocol upgrades; 0 uses the default (coordinator mode)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: concurrent requests executing at once; 0 disables admission (coordinator mode)")
	maxQueue := flag.Int("max-queue", 0, "admission control: queued requests beyond the in-flight cap before shedding; 0 uses the default (coordinator mode, with -max-inflight)")
	admitDeadline := flag.Duration("admit-deadline", 0, "admission control: maximum queue wait before a request is shed; 0 uses the default (coordinator mode, with -max-inflight)")
	rebalanceEvery := flag.Duration("rebalance-every", 0, "re-run the partitioner over the live node set this often and execute any pending moves; 0 disables (coordinator mode)")
	debug := flag.String("debug", "", "optional HTTP listen address serving /debug/vars (live metrics) and /debug/pprof")
	// Control mode.
	ctl := flag.String("ctl", "", "coordinator address for a one-shot cluster-control command; use with -drain or -rebalance")
	drainNode := flag.String("drain", "", "drain this shard node out of the cluster (with -ctl)")
	rebalanceTo := flag.Int("rebalance", 0, "rebalance the cluster to this many nodes (with -ctl)")
	flag.Parse()

	var err error
	if *ctl != "" {
		err = runCtl(*ctl, *drainNode, *rebalanceTo, *timeout)
	} else if *coordinator {
		copts := coordOptions{
			shards: *shards, timeout: *timeout, rejoinEvery: *rejoinEvery,
			cacheCells: *cacheCells, cachePin: *cachePin, hedge: *hedge, muxWindow: *muxWindow,
			maxInflight: *maxInflight, maxQueue: *maxQueue, admitDeadline: *admitDeadline,
			rebalanceEvery: *rebalanceEvery,
		}
		err = runCoordinator(*addr, copts, *debug)
	} else {
		dopts := durableOptions{
			dir: *dataDir, fsync: *fsyncFlag, fsyncEvery: *fsyncEvery,
			checkpointEvery: *checkpointEvery,
		}
		err = runShard(*shapeFlag, *in, *addr, *nodes, *replicas, *nodeID, dopts, *joinAddr, *debug)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cubeshard:", err)
		os.Exit(1)
	}
}

// durableOptions carries the persistence flags into startShard.
type durableOptions struct {
	dir             string
	fsync           string
	fsyncEvery      time.Duration
	checkpointEvery int
}

// runShard builds and serves one node's block sub-cube until interrupted.
func runShard(shapeStr, in, addr string, nodes, replicas, nodeID int, dopts durableOptions, join, debug string) error {
	if join != "" && dopts.dir == "" {
		return fmt.Errorf("-join needs -data-dir: only durable nodes can join a live cluster")
	}
	node, err := startShard(shapeStr, in, addr, nodes, replicas, nodeID, dopts, join != "")
	if err != nil {
		return err
	}
	if err := startDebug(debug, node.Metrics()); err != nil {
		node.Close()
		return err
	}
	if dopts.dir != "" {
		node.RecoveryMetrics().PublishExpvar("recovery")
		fmt.Fprintf(os.Stderr, "shard node %d serving block %s on %s (data dir %s, recovered to LSN %d)\n",
			node.ID, node.Block, node.Addr(), dopts.dir, node.LastLSN())
	} else {
		fmt.Fprintf(os.Stderr, "shard node %d serving block %s on %s\n", node.ID, node.Block, node.Addr())
	}
	if join != "" {
		// Announce to the coordinator once the server is up: the cluster
		// ships this node its block's state and cuts reads over to it.
		if err := announceJoin(join, node.Addr()); err != nil {
			node.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "joined cluster via %s\n", join)
	}
	waitForInterrupt()
	if dopts.dir != "" {
		// A shutdown checkpoint makes the next start instant: recovery
		// loads it and replays an empty log tail.
		if err := node.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "cubeshard: shutdown checkpoint:", err)
		}
	}
	return node.Close()
}

// startDebug exposes the process's metrics and profiles over HTTP when a
// debug address is configured: the build-engine registry ("parcube") and
// the serving registry ("serving") appear in expvar's /debug/vars JSON,
// and net/http/pprof serves /debug/pprof for live profiling.
func startDebug(addr string, serving *obs.Registry) error {
	if addr == "" {
		return nil
	}
	obs.Default.PublishExpvar("parcube")
	serving.PublishExpvar("serving")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug endpoint: %w", err)
	}
	fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/vars (pprof at /debug/pprof/)\n", ln.Addr())
	// The default mux carries expvar's and pprof's handlers.
	//cubelint:ignore goroutine-leak debug endpoint serves for the process lifetime; no join by design
	go http.Serve(ln, nil)
	return nil
}

// announceJoin issues JOIN over the coordinator's control surface. The
// coordinator runs the whole migration — checkpoint ship, WAL catch-up,
// atomic cutover — before the call returns.
func announceJoin(coordAddr, selfAddr string) error {
	cl, err := server.DialTimeout(coordAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("joining via %s: %w", coordAddr, err)
	}
	defer cl.Close()
	if err := cl.Join(selfAddr); err != nil {
		return fmt.Errorf("joining via %s: %w", coordAddr, err)
	}
	return nil
}

// runCtl executes one cluster-control command against a coordinator.
func runCtl(coordAddr, drain string, rebalance int, timeout time.Duration) error {
	if (drain == "") == (rebalance == 0) {
		return fmt.Errorf("-ctl needs exactly one of -drain or -rebalance")
	}
	cl, err := server.DialTimeout(coordAddr, timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Migrations move real data; give the one-shot a generous bound.
	cl.SetTimeout(5 * time.Minute)
	if drain != "" {
		if err := cl.Drain(drain); err != nil {
			return err
		}
		fmt.Printf("drained %s\n", drain)
		return nil
	}
	moves, err := cl.Rebalance(rebalance)
	if err != nil {
		return err
	}
	fmt.Printf("rebalanced to %d nodes: %d moves\n", rebalance, moves)
	return nil
}

// startShard loads the fact table, plans the cluster layout, and starts
// this node — durable when a data dir is configured, in-memory otherwise.
// allowEmpty lets -in none start with an empty base cube instead of
// requiring a checkpoint: a joining node's state arrives from the
// cluster, not from local history.
func startShard(shapeStr, in, addr string, nodes, replicas, nodeID int, dopts durableOptions, allowEmpty bool) (*shard.Node, error) {
	if shapeStr == "" {
		return nil, fmt.Errorf("-shape is required in shard mode")
	}
	sizes, names, err := parseSizes(shapeStr)
	if err != nil {
		return nil, err
	}
	dims := make([]parcube.Dim, len(sizes))
	for i := range sizes {
		dims[i] = parcube.Dim{Name: names[i], Size: sizes[i]}
	}
	schema, err := parcube.NewSchema(dims...)
	if err != nil {
		return nil, err
	}

	var ds *parcube.Dataset
	if in == "none" {
		if dopts.dir == "" {
			return nil, fmt.Errorf("-in none needs -data-dir: without a fact table the cube can only come from a checkpoint")
		}
		if allowEmpty {
			// Joining node: start from an empty base. An existing
			// checkpoint still wins during recovery, so restarts of a
			// member node with -join are harmless.
			ds = parcube.NewDataset(schema)
		}
	} else {
		var r io.Reader = os.Stdin
		if in != "-" {
			f, err := os.Open(in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		if ds, err = loadFacts(r, schema); err != nil {
			return nil, err
		}
	}

	plan, err := shard.NewPlan(schema.Names(), schema.Sizes(), nodes, replicas)
	if err != nil {
		return nil, err
	}
	if dopts.dir == "" {
		return shard.StartNode(plan, nodeID, ds, addr)
	}
	policy, err := wal.ParsePolicy(dopts.fsync)
	if err != nil {
		return nil, err
	}
	return shard.StartDurableNode(plan, nodeID, ds, addr, shard.DurableOptions{
		DataDir:         dopts.dir,
		Fsync:           policy,
		FsyncEvery:      dopts.fsyncEvery,
		CheckpointEvery: dopts.checkpointEvery,
	})
}

// coordOptions carries the coordinator-mode flags into startCoordinator.
type coordOptions struct {
	shards         string
	timeout        time.Duration
	rejoinEvery    time.Duration
	cacheCells     int64
	cachePin       int64
	hedge          bool
	muxWindow      int
	maxInflight    int
	maxQueue       int
	admitDeadline  time.Duration
	rebalanceEvery time.Duration
}

// runCoordinator serves the scatter-gather router until interrupted.
func runCoordinator(addr string, opts coordOptions, debug string) error {
	srv, coord, mgr, bound, err := startCoordinator(addr, opts)
	if err != nil {
		return err
	}
	stopRebalance := make(chan struct{})
	if opts.rebalanceEvery > 0 {
		//cubelint:ignore goroutine-leak the rebalance ticker joins via the stop channel closed on shutdown below
		go autoRebalance(mgr, opts.rebalanceEvery, stopRebalance)
	}
	// The coordinator's fan-out/failover metrics ride along under their
	// own expvar name next to the protocol server's command metrics.
	coord.Metrics().PublishExpvar("coordinator")
	if err := startDebug(debug, srv.Metrics()); err != nil {
		srv.Close()
		coord.Close()
		return err
	}
	names, _ := coord.SchemaDims()
	fmt.Fprintf(os.Stderr, "coordinator for %d-D cube on %s\n", len(names), bound)
	waitForInterrupt()
	close(stopRebalance)
	err = srv.Close()
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	return err
}

// autoRebalance periodically re-runs the planner over the live node set
// and executes any pending moves, converging replica placement after
// ad-hoc joins and drains.
func autoRebalance(mgr *elastic.Manager, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			moves, err := mgr.RebalanceAuto()
			if err != nil {
				fmt.Fprintln(os.Stderr, "cubeshard: auto-rebalance:", err)
			} else if moves > 0 {
				fmt.Fprintf(os.Stderr, "cubeshard: auto-rebalance executed %d moves\n", moves)
			}
		}
	}
}

// startCoordinator performs the handshake and starts the protocol
// server, with the optional serving-tier layers (hedged reads, the hot
// group-by cache) stacked in front of the coordinator.
func startCoordinator(addr string, opts coordOptions) (*server.Server, *shard.Coordinator, *elastic.Manager, string, error) {
	var addrs []string
	for _, a := range strings.Split(opts.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, nil, nil, "", fmt.Errorf("-shards is required in coordinator mode")
	}
	coord, err := shard.NewCoordinator(shard.Config{
		Addrs:       addrs,
		Timeout:     opts.timeout,
		RejoinEvery: opts.rejoinEvery,
		Hedge:       opts.hedge,
	})
	if err != nil {
		return nil, nil, nil, "", err
	}
	mgr := elastic.New(coord, nil, elastic.Options{Timeout: opts.timeout})
	var backend server.Backend = coord
	if opts.cacheCells > 0 {
		cache := qcache.Wrap(coord, qcache.Config{
			MaxCells: opts.cacheCells,
			PinCells: opts.cachePin,
		})
		if opts.cachePin > 0 {
			if err := cache.Prefetch(); err != nil {
				fmt.Fprintln(os.Stderr, "cubeshard: prefetching pinned views:", err)
			}
		}
		cache.Metrics().PublishExpvar("qcache")
		backend = cache
	}
	srv := server.NewBackend(backend)
	srv.SetElastic(mgr)
	srv.MuxWindow = opts.muxWindow
	if opts.maxInflight > 0 {
		srv.ConfigureAdmission(mux.AdmissionConfig{
			MaxInFlight: opts.maxInflight,
			MaxQueue:    opts.maxQueue,
			Deadline:    opts.admitDeadline,
		})
	}
	// The coordinator enables connection deadlines: an idle client is
	// dropped after 10 minutes, a stalled reader after 30 seconds, so
	// dead peers cannot pin goroutines.
	srv.ReadTimeout = 10 * time.Minute
	srv.WriteTimeout = 30 * time.Second
	bound, err := srv.Listen(addr)
	if err != nil {
		coord.Close()
		return nil, nil, nil, "", err
	}
	return srv, coord, mgr, bound, nil
}

// waitForInterrupt blocks until SIGINT.
func waitForInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

// loadFacts reads CSV rows (header then coordinates+value) into a
// Dataset, tolerating any header names.
func loadFacts(r io.Reader, schema *parcube.Schema) (*parcube.Dataset, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	ds := parcube.NewDataset(schema)
	n := schema.Dims()
	coords := make([]int, n)
	first := true
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if first {
			first = false // skip the header
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != n+1 {
			return nil, fmt.Errorf("row %q has %d fields, want %d", line, len(parts), n+1)
		}
		for i := 0; i < n; i++ {
			c, err := strconv.Atoi(strings.TrimSpace(parts[i]))
			if err != nil {
				return nil, fmt.Errorf("row %q: %w", line, err)
			}
			coords[i] = c
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[n]), 64)
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", line, err)
		}
		if err := ds.Add(v, coords...); err != nil {
			return nil, err
		}
	}
	if first {
		return nil, fmt.Errorf("empty input")
	}
	return ds, nil
}

// parseSizes parses "64x32" into sizes and default names A, B, ...
func parseSizes(s string) ([]int, []string, error) {
	parts := strings.Split(s, "x")
	sizes := make([]int, 0, len(parts))
	names := make([]string, 0, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, nil, fmt.Errorf("bad shape %q: %w", s, err)
		}
		sizes = append(sizes, v)
		names = append(names, string(rune('A'+i)))
	}
	return sizes, names, nil
}
