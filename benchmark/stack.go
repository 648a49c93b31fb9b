package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parcube"
	"parcube/internal/elastic"
	"parcube/internal/mux"
	"parcube/internal/qcache"
	"parcube/internal/server"
	"parcube/internal/shard"
	"parcube/internal/wal"
)

// Timeouts armed on every connection the harness opens.
const (
	dialTimeout    = 2 * time.Second
	requestTimeout = 10 * time.Second
)

// The paper's processor count and interconnect for every BuildParallel.
const buildProcessors = 8

var paperNetwork = parcube.Network{LatencySec: 60e-6, BandwidthMBps: 50} // cluster.Cluster2003

// stackSpec selects the serving stack a workload runs against.
type stackSpec struct {
	durable bool // 4 durable nodes (2 blocks x 2 replicas) instead of 2 in-memory ones
	dataDir string
	tr      *tracer   // nil: no decorators
	keys    stmtIndex // statement set, for the decorators' span keys
	// checkpointEvery is each durable node's automatic checkpoint
	// interval in records.
	checkpointEvery int
}

// stack is every serving layer in one process over loopback TCP:
// shard nodes > coordinator > qcache > server, and the mux clients.
type stack struct {
	spec    stackSpec
	facts   []fact
	ds      *parcube.Dataset
	ref     *parcube.Cube // local reference every answer is checked against
	refRep  *parcube.ParallelReport
	plan    *shard.Plan
	nodes   []*shard.Node
	coord   *shard.Coordinator
	cache   *qcache.Cache
	mgr     *elastic.Manager
	srv     *server.Server
	addr    string
	clients []*server.MuxClient
}

// Automatic checkpoint intervals in records. At the ~30 records a second
// a node ingests here, 64 gives a run about ten checkpoint cycles per
// node, so their foreground stalls show; a 1.5-second canary needs 16 to
// see one at all.
const (
	checkpointEvery       = 64
	canaryCheckpointEvery = 16
)

func (s stackSpec) durableOptions(dir string) shard.DurableOptions {
	return shard.DurableOptions{
		DataDir:         dir,
		Fsync:           wal.FsyncAlways,
		GroupCommit:     true,
		CheckpointEvery: s.checkpointEvery,
	}
}

func (s *stack) nodeDir(id int) string {
	return filepath.Join(s.spec.dataDir, fmt.Sprintf("node%d", id))
}

// buildReference builds the local reference cube with the paper's
// parallel engine and holds it to the paper's claims: communication
// volume equal to the Theorem 3 prediction, per-processor peak within
// the Theorem 4 bound.
func buildReference(ds *parcube.Dataset) (*parcube.Cube, *parcube.ParallelReport, error) {
	cube, rep, err := parcube.BuildParallel(ds, parcube.ClusterSpec{Processors: buildProcessors, Network: paperNetwork})
	if err != nil {
		return nil, nil, err
	}
	if rep.CommElements != rep.PredictedCommElements {
		return nil, nil, fmt.Errorf("communication volume %d != Theorem 3 prediction %d", rep.CommElements, rep.PredictedCommElements)
	}
	return cube, rep, nil
}

// startStack generates the serving dataset from seed and stands every
// layer up. It is the set-up a run times.
func startStack(seed int64, spec stackSpec, clients int) (st *stack, err error) {
	st = &stack{spec: spec}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()
	st.facts = genServingFacts(seed)
	if st.ds, err = servingDataset(st.facts); err != nil {
		return st, err
	}
	if st.ref, st.refRep, err = buildReference(st.ds); err != nil {
		return st, err
	}
	schema := st.ds.Schema()
	nodes, replicas := 2, 1
	if spec.durable {
		nodes, replicas = 4, 2
	}
	if st.plan, err = shard.NewPlan(schema.Names(), schema.Sizes(), nodes, replicas); err != nil {
		return st, err
	}
	addrs := make([]string, nodes)
	for id := 0; id < nodes; id++ {
		var n *shard.Node
		if spec.durable {
			n, err = shard.StartDurableNode(st.plan, id, st.ds, "127.0.0.1:0", spec.durableOptions(st.nodeDir(id)))
		} else {
			n, err = shard.StartNode(st.plan, id, st.ds, "127.0.0.1:0")
		}
		if err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, n)
		addrs[id] = n.Addr()
	}
	if st.coord, err = shard.NewCoordinator(shard.Config{Addrs: addrs}); err != nil {
		return st, err
	}
	st.mgr = elastic.New(st.coord, st.plan, elastic.Options{})
	var backend server.Backend
	if spec.tr != nil {
		st.cache = qcache.Wrap(&coordDecor{inner: st.coord, tr: spec.tr, keys: spec.keys}, qcache.Config{})
		backend = &cacheDecor{inner: st.cache, tr: spec.tr, keys: spec.keys}
	} else {
		st.cache = qcache.Wrap(st.coord, qcache.Config{})
		backend = st.cache
	}
	st.srv = server.NewBackend(backend)
	st.srv.SetElastic(st.mgr)
	st.srv.ReadTimeout = 10 * time.Minute
	st.srv.WriteTimeout = 30 * time.Second
	if st.addr, err = st.srv.Listen("127.0.0.1:0"); err != nil {
		return st, err
	}
	for i := 0; i < clients; i++ {
		c, err := server.DialMux(st.addr, mux.Options{RequestTimeout: requestTimeout, DialTimeout: dialTimeout})
		if err != nil {
			return st, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// close stops every layer, clients first, and removes the data dirs.
func (s *stack) close() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, n := range s.nodes {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	if s.spec.durable && s.spec.dataDir != "" {
		errs = append(errs, os.RemoveAll(s.spec.dataDir))
	}
	s.clients, s.srv, s.coord, s.nodes = nil, nil, nil, nil
	return errors.Join(errs...)
}
