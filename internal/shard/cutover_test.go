package shard

import (
	"sync"
	"testing"

	"parcube/internal/server"
)

// TestIngestAfterCutoverReachesJoiner pins an ingest round's replica
// list under the group's write lock. AttachReplica cuts a joiner over
// under that lock at repLSN == lastLSN; a leader that read the list
// before taking the lock shipped record lastLSN+1 to the old replicas
// only, and the joiner silently missed it. The hook attaches the joiner
// exactly between the leader draining its queue and taking the lock.
func TestIngestAfterCutoverReachesJoiner(t *testing.T) {
	ds, _ := test4D(t)
	dc := startDurableCluster(t, ds, 2, 1)
	owner := dc.nodes[0]
	b := dc.coord.GroupIndexByBlock(owner.Block.String())
	if b < 0 {
		t.Fatalf("no group serves %s", owner.Block)
	}

	// A second durable node for the owner's block, identical to it at
	// LSN 0, so the cutover needs no catch-up.
	dopts := dc.dopts
	dopts.DataDir = t.TempDir()
	joiner, err := StartDurableNode(dc.plan, 0, ds, "127.0.0.1:0", dopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = joiner.Close() })

	var once sync.Once
	var attachErr error
	testHookBeforeWriteLock = func(*blockGroup) {
		once.Do(func() { _, attachErr = dc.coord.AttachReplica(b, joiner.Addr()) })
	}
	defer func() { testHookBeforeWriteLock = nil }()

	lsn, _, err := dc.coord.Delta([]server.Row{{Coords: blockCell(owner, 0), Value: 7}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if attachErr != nil {
		t.Fatalf("attach: %v", attachErr)
	}
	if lsn != 1 {
		t.Fatalf("delta landed at lsn %d, want 1", lsn)
	}

	totals := make([]float64, 2)
	for i, addr := range []string{owner.Addr(), joiner.Addr()} {
		cl, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		info, err := cl.ShardInfo()
		if err != nil {
			t.Fatal(err)
		}
		if info["lsn"] != "1" {
			t.Errorf("%s is at lsn %s after the delta, want 1", addr, info["lsn"])
		}
		if totals[i], err = cl.Total(); err != nil {
			t.Fatal(err)
		}
		_ = cl.Close()
	}
	if totals[0] != totals[1] {
		t.Fatalf("joiner holds total %v, its peer %v", totals[1], totals[0])
	}
}
