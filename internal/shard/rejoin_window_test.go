package shard

import (
	"testing"

	"parcube"
	"parcube/internal/server"
)

// These tests pin reconcileTail's geometric comparison windows (step 4,
// then *8) at their boundaries. The repair walks j from the replica's
// newest LSN down to lo+1 — lo itself is never scanned inside a window —
// so agreement sitting exactly at a window edge, or a divergent suffix
// longer than the first window, must force the next (wider) window
// rather than a wrong truncation point.

// windowPair boots a lockstep pair, records `agreed` coordinator deltas
// (LSNs 1..agreed, mirrored into ref), then forges `divergent` records
// directly onto replica 0 (lost-ack style: applied and logged, never
// acked), marks it down, and replays `divergent` different retried
// deltas through the coordinator so the live peer reuses the same LSNs.
func windowPair(t *testing.T, agreed, divergent int) (dc *durableCluster, ref *parcube.Cube, g *blockGroup, rep *replica) {
	t.Helper()
	ds, refCube := test4D(t)
	dc = startLockstepPair(t, ds)
	ref = refCube
	g = dc.coord.groups()[0]
	rep = g.replicaList()[0] // nodes[0]: replicas follow Addrs order

	for i := 0; i < agreed; i++ {
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], i), Value: float64(i + 1)}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("agreed delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	direct, err := server.Dial(dc.nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < divergent; i++ {
		lsn := uint64(agreed + i + 1)
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], 20+i), Value: float64(1000 + i)}}
		if applied, err := deltaAt(direct, lsn, rows); err != nil || !applied {
			t.Fatalf("direct delta at %d: applied=%v, %v", lsn, applied, err)
		}
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
	dc.coord.markDown(rep)

	for i := 0; i < divergent; i++ {
		rows := []server.Row{{Coords: blockCell(dc.nodes[0], 40+i), Value: float64(2000 + i)}}
		if _, _, err := dc.coord.Delta(rows, 0); err != nil {
			t.Fatalf("retried delta %d: %v", i, err)
		}
		applyRef(t, ref, rows)
	}

	want := uint64(agreed + divergent)
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != want || b != want {
		t.Fatalf("setup: replicas at LSNs %d and %d, want both at %d (divergent content)", a, b, want)
	}
	return dc, ref, g, rep
}

// repairAndAssert runs the synchronous rejoin and checks the repaired
// replica rejoined in lockstep with the repaired content.
func repairAndAssert(t *testing.T, dc *durableCluster, ref *parcube.Cube, g *blockGroup, rep *replica, wantLSN uint64, when string) {
	t.Helper()
	dc.coord.tryRejoin(g, rep)
	if rep.down.Load() {
		t.Fatalf("%s: replica not readmitted (stats %+v)", when, dc.coord.Stats())
	}
	if got := dc.coord.Stats().TailTruncates; got == 0 {
		t.Fatalf("%s: divergent tail readmitted without truncation", when)
	}
	if a, b := dc.nodes[0].LastLSN(), dc.nodes[1].LastLSN(); a != b || a != wantLSN {
		t.Fatalf("%s: replicas at LSNs %d and %d after repair, want lockstep at %d", when, a, b, wantLSN)
	}
	assertCoordMatches(t, dc.coord, ref, when)
}

// TestRejoinWindowEdgeAgreement puts the highest agreed record exactly
// at the first window's lower edge: repLSN=9, step=4, lo=5 — records
// 6..9 all diverge and LSN 5 (the agreement) is lo itself, which the
// window never scans. The repair must widen to the next window and
// truncate to 5, not give up or truncate to 0.
func TestRejoinWindowEdgeAgreement(t *testing.T) {
	dc, ref, g, rep := windowPair(t, 5, 4)
	repairAndAssert(t, dc, ref, g, rep, 9, "edge-agreement repair")
}

// TestRejoinWindowLongSuffix makes the divergent suffix longer than the
// whole first window: repLSN=9 with records 4..9 divergent, so window
// one (lo=5) sees only divergence and the agreement at LSN 3 is two
// records below its edge. The widened window must find it.
func TestRejoinWindowLongSuffix(t *testing.T) {
	dc, ref, g, rep := windowPair(t, 3, 6)
	repairAndAssert(t, dc, ref, g, rep, 9, "long-suffix repair")
}

// TestRejoinWindowFullRebuild has no agreed history at all: every
// record the replica holds disagrees with the group (repLSN=3 < step=4,
// so lo=0 in the first window). The repair must truncate to 0 and
// rebuild the replica entirely from the peer.
func TestRejoinWindowFullRebuild(t *testing.T) {
	dc, ref, g, rep := windowPair(t, 0, 3)
	repairAndAssert(t, dc, ref, g, rep, 3, "full-rebuild repair")
}
