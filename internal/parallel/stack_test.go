package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/comm"
	"parcube/internal/cubeio"
	"parcube/internal/nd"
	"parcube/internal/seq"
)

// signedSparse fills a sparse array with signed integer facts, so Sum is
// exact in any order (the parallel cube's bits must equal the sequential
// one's) and Max/Min see negative values beside empty cells.
func signedSparse(tb testing.TB, shape nd.Shape, nnz int, seed int64) *array.Sparse {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := array.NewSparseBuilder(shape, nil)
	if err != nil {
		tb.Fatal(err)
	}
	coords := make([]int, shape.Rank())
	for i := 0; i < nnz; i++ {
		for d := range coords {
			coords[d] = rng.Intn(shape[d])
		}
		if err := b.Add(coords, float64(rng.Intn(19)-9)); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Build()
}

func snapshotBytes(t *testing.T, store *seq.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cubeio.WriteSnapshot(&buf, store); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stackWallPartitions are the partitions the wall builds with, and each
// rank's peak held elements as the heap-allocating engine measured them
// before accumulators moved onto a stack. The peaks depend on the shape
// and the partition only, not on the operator, the fabric or Replicate.
var stackWallPartitions = []struct {
	name  string
	opts  Options
	peaks []int64
}{
	// The greedy partition, [2 1 0 0]: 12/4 x 10/2 blocks, even.
	{"default K", Options{LogProcs: 3}, []int64{460, 460, 460, 460, 460, 460, 460, 460}},
	// 10/4 and 7/2 do not divide: blocks of 3 or 2 by 4 or 3 cells.
	{"uneven K", Options{K: []int{0, 2, 1, 0}}, []int64{624, 513, 624, 513, 496, 402, 496, 402}},
}

// TestStackBuildWall: under every operator, with and without Replicate,
// over the channel and the TCP fabric, with the greedy partition and an
// uneven explicit one, the parallel cube's snapshot bytes equal the
// sequential engine's, every rank's peak equals the heap-allocating
// engine's, and no build leaves a stack that the next one misreads.
func TestStackBuildWall(t *testing.T) {
	input := signedSparse(t, nd.MustShape(12, 10, 7, 5), 600, 131)
	for _, op := range []agg.Op{agg.Sum, agg.Count, agg.Max, agg.Min} {
		ref, err := seq.Build(input, seq.Options{Op: op})
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotBytes(t, ref.Cube)
		for _, part := range stackWallPartitions {
			for _, replicate := range []bool{false, true} {
				for _, fabric := range []string{"chan", "tcp"} {
					what := fmt.Sprintf("%v %s replicate=%v %s", op, part.name, replicate, fabric)
					opts := part.opts
					opts.Op, opts.Replicate = op, replicate
					if fabric == "tcp" {
						fab, err := comm.NewTCPFabric(8)
						if err != nil {
							t.Fatal(err)
						}
						opts.Fabric = fab
					}
					res, err := Build(input, opts)
					if opts.Fabric != nil {
						if cerr := opts.Fabric.Close(); cerr != nil {
							t.Fatal(cerr)
						}
					}
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if got := snapshotBytes(t, res.Cube); !bytes.Equal(got, want) {
						t.Fatalf("%s: snapshot differs from the sequential engine's", what)
					}
					if !reflect.DeepEqual(res.Stats.PerProcPeakElements, part.peaks) {
						t.Fatalf("%s: per-processor peaks %v, want %v", what, res.Stats.PerProcPeakElements, part.peaks)
					}
				}
			}
		}
	}
}

// TestStackSurvivesFailedBuild: a build whose transport fails in the
// middle of the traversal, with accumulators still on every stack, fails
// with the injected fault, and the builds after it are exact.
func TestStackSurvivesFailedBuild(t *testing.T) {
	input := signedSparse(t, nd.MustShape(12, 10, 7, 5), 600, 137)
	ref, err := seq.Build(input, seq.Options{Op: agg.Max})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, ref.Cube)
	for _, failAfter := range []int64{0, 1, 3} {
		inner, err := comm.NewChanFabric(8)
		if err != nil {
			t.Fatal(err)
		}
		faulty := &comm.FaultyFabric{Inner: inner, FailRank: 5, FailAfter: failAfter}
		_, err = Build(input, Options{Op: agg.Max, K: []int{0, 2, 1, 0}, Fabric: faulty})
		if !errors.Is(err, comm.ErrInjected) {
			t.Fatalf("fail after %d sends: error %v, want the injected fault", failAfter, err)
		}
		for trial := 0; trial < 2; trial++ {
			res, err := Build(input, Options{Op: agg.Max, K: []int{0, 2, 1, 0}})
			if err != nil {
				t.Fatalf("build after a failed one: %v", err)
			}
			if !bytes.Equal(snapshotBytes(t, res.Cube), want) {
				t.Fatalf("fail after %d sends: the next build's snapshot differs", failAfter)
			}
			if !reflect.DeepEqual(res.Stats.PerProcPeakElements, stackWallPartitions[1].peaks) {
				t.Fatalf("fail after %d sends: peaks %v", failAfter, res.Stats.PerProcPeakElements)
			}
		}
	}
}

// TestStackOrder: pushes fill with the identity, pops must come in the
// reverse order of the pushes, and the high-water mark is the peak.
func TestStackOrder(t *testing.T) {
	stacks := getStacks(1, 20)
	defer putStacks(stacks)
	s := stacks[0]
	a, err := s.push(nd.MustShape(2, 3), agg.Max)
	if err != nil {
		t.Fatal(err)
	}
	a.Data()[0] = 7
	b, err := s.push(nd.MustShape(4), agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Data() {
		if v != 0 {
			t.Fatalf("pushed Sum accumulator holds %v", b.Data())
		}
	}
	if err := s.pop(a); err == nil || !strings.Contains(err.Error(), "out of stack order") {
		t.Fatalf("popping below the top: error %v", err)
	}
	if err := s.pop(b); err != nil {
		t.Fatal(err)
	}
	if err := s.pop(b); err == nil {
		t.Fatal("popping a released accumulator succeeded")
	}
	if err := s.pop(a); err != nil {
		t.Fatal(err)
	}
	c, err := s.push(nd.MustShape(3, 3), agg.Min)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Data() {
		if v != agg.Min.Identity() {
			t.Fatalf("reused cells not refilled: %v", c.Data())
		}
	}
	if s.top != 9 || s.peak != 10 {
		t.Fatalf("top %d peak %d, want 9 and 10", s.top, s.peak)
	}
}

// TestStackOverflowIsTheorem4Error: a push past the bound fails with the
// Theorem 4 error text and bumps its counter, at the push.
func TestStackOverflowIsTheorem4Error(t *testing.T) {
	stacks := getStacks(1, 10)
	defer putStacks(stacks)
	s := stacks[0]
	if _, err := s.push(nd.MustShape(6), agg.Sum); err != nil {
		t.Fatal(err)
	}
	before := memoryBoundViolations.Value()
	_, err := s.push(nd.MustShape(5), agg.Sum)
	want := "parallel: peak per-processor memory 11 elements exceeds Theorem 4 bound 10"
	if err == nil || err.Error() != want {
		t.Fatalf("overflow error %v, want %q", err, want)
	}
	if got := memoryBoundViolations.Value(); got != before+1 {
		t.Fatalf("violations counter %d, want %d", got, before+1)
	}
	if s.top != 6 {
		t.Fatalf("a refused push moved the top to %d", s.top)
	}
}
