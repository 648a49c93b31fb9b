package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"parcube"
	"parcube/internal/qcache"
	"parcube/internal/server"
)

// frontSession is one text-protocol session against a front server:
// every table-shaped command plus the scalar ones, answered in the line
// protocol's text form whatever the coordinator speaks to its shards.
const frontSession = "GROUPBY item,region\n" +
	"GROUPBY\n" +
	"GROUPBY item,branch,time,region\n" +
	"QUERY GROUP BY item, branch WHERE time BETWEEN 1 AND 3\n" +
	"QUERY GROUP BY region WHERE item = 2\n" +
	"QUERY GROUP BY item WHERE item BETWEEN 3 AND 3\n" +
	"QUERY WHERE branch = 2\n" +
	"QUERY GROUP BY time TOP 2\n" +
	"TOP 5 branch,time\n" +
	"TOTAL\n" +
	"VALUE item,region 6,2\n" +
	"VALUE - \n" +
	"QUIT\n"

// frontTranscript runs frontSession against addr and returns every byte
// the server answered.
func frontTranscript(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, frontSession); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFrontTextRepliesGolden pins the front server's text replies byte
// for byte, for a Sum and a Max cluster (whose empty cells answer
// -Inf), served by the coordinator directly and through the query
// cache. The Sum hash was recorded before the shard hop carried dense
// replies: the wire change behind the front must not show in front of
// it. The Max hash was re-recorded when the full-dimensional group-by
// started answering -Inf, not 0, in its 513 cells without a fact, as
// every other Max group-by does; nothing else in its transcript moved.
func TestFrontTextRepliesGolden(t *testing.T) {
	golden := map[parcube.Aggregator]string{
		parcube.Sum: "abea033374308507c4af7f8a7071e99b969bf39025d071818786db4a0709c7da",
		parcube.Max: "d11b1e41dbd4132374dcd5c3dd52d3d368a4024fff40229188e9e132d318b0f0",
	}
	for op, want := range golden {
		ds, _ := test4D(t)
		plan, err := NewPlan(ds.Schema().Names(), ds.Schema().Sizes(), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]string, 4)
		for i := range addrs {
			n, err := StartNode(plan, i, ds, "127.0.0.1:0", parcube.WithAggregator(op))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			addrs[i] = n.Addr()
		}
		coord, err := NewCoordinator(Config{Addrs: addrs, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		for name, backend := range map[string]server.Backend{
			"coordinator": coord,
			"cached":      qcache.Wrap(coord, qcache.Config{}),
		} {
			srv := server.NewBackend(backend)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			transcript := frontTranscript(t, addr)
			if bytes.Contains(transcript, []byte("ERR")) || !bytes.HasSuffix(transcript, []byte("OK bye\n")) {
				t.Fatalf("%v %s front: the session did not run clean:\n%s", op, name, transcript)
			}
			sum := sha256.Sum256(transcript)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%v %s front: transcript sha256 %s, want %s", op, name, got, want)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
