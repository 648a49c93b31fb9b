package parcube

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parcube/internal/cluster"
)

func retailSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Dim{Name: "item", Size: 8},
		Dim{Name: "branch", Size: 6},
		Dim{Name: "time", Size: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func retailDataset(t *testing.T, seed int64, facts int) *Dataset {
	t.Helper()
	ds := NewDataset(retailSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < facts; i++ {
		if err := ds.Add(float64(rng.Intn(20)+1), rng.Intn(8), rng.Intn(6), rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := NewSchema(Dim{Name: "", Size: 4}); err == nil {
		t.Fatal("unnamed dimension accepted")
	}
	if _, err := NewSchema(Dim{Name: "a", Size: 4}, Dim{Name: "a", Size: 2}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewSchema(Dim{Name: "a", Size: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
	s := retailSchema(t)
	if s.Dims() != 3 {
		t.Fatalf("Dims = %d", s.Dims())
	}
	if i, ok := s.Index("branch"); !ok || i != 1 {
		t.Fatalf("Index(branch) = %d, %v", i, ok)
	}
	if s.Sizes()[2] != 4 {
		t.Fatalf("Sizes = %v", s.Sizes())
	}
}

func TestDatasetAddValidation(t *testing.T) {
	ds := NewDataset(retailSchema(t))
	if err := ds.Add(1, 0, 0); err == nil {
		t.Fatal("short coords accepted")
	}
	if err := ds.Add(1, 99, 0, 0); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := ds.Add(5, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if ds.Facts() != 1 {
		t.Fatalf("Facts = %d", ds.Facts())
	}
	if ds.Cells() != 1 {
		t.Fatalf("Cells = %d", ds.Cells())
	}
	// Frozen after Cells (which freezes).
	if err := ds.Add(1, 0, 0, 0); err == nil {
		t.Fatal("add after freeze accepted")
	}
}

func TestAddRecord(t *testing.T) {
	ds := NewDataset(retailSchema(t))
	err := ds.AddRecord(7, map[string]int{"time": 3, "item": 2, "branch": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddRecord(1, map[string]int{"item": 0, "branch": 0}); err == nil {
		t.Fatal("missing dimension accepted")
	}
	if err := ds.AddRecord(1, map[string]int{"item": 0, "branch": 0, "bogus": 0}); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	cube, _, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := cube.GroupBy("item", "time")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.At(2, 3) != 7 {
		t.Fatalf("At(2,3) = %v", tbl.At(2, 3))
	}
}

func TestBuildAndQueries(t *testing.T) {
	ds := retailDataset(t, 1, 200)
	cube, stats, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	if cube.NumGroupBys() != 7 {
		t.Fatalf("NumGroupBys = %d", cube.NumGroupBys())
	}
	if stats.Updates <= 0 || stats.PeakMemoryElements <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PeakMemoryElements > stats.MemoryBoundElements {
		t.Fatalf("peak %d exceeds bound %d", stats.PeakMemoryElements, stats.MemoryBoundElements)
	}

	// Consistency: total equals sum over any 1-D group-by.
	total := cube.Total()
	byItem, err := cube.GroupBy("item")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < 8; i++ {
		sum += byItem.At(i)
	}
	if sum != total {
		t.Fatalf("sum over items %v != total %v", sum, total)
	}

	// 2-D group-by row sums match 1-D.
	byItemBranch, _ := cube.GroupBy("item", "branch")
	rowSum := 0.0
	for b := 0; b < 6; b++ {
		rowSum += byItemBranch.At(3, b)
	}
	if rowSum != byItem.At(3) {
		t.Fatalf("row sum %v != byItem %v", rowSum, byItem.At(3))
	}

	// Full group-by materializes the input.
	fullTbl, err := cube.GroupBy("item", "branch", "time")
	if err != nil {
		t.Fatal(err)
	}
	if fullTbl.Size() != 8*6*4 {
		t.Fatalf("full table size = %d", fullTbl.Size())
	}

	// Grand total via empty GroupBy.
	tot, err := cube.GroupBy()
	if err != nil {
		t.Fatal(err)
	}
	if tot.At() != total {
		t.Fatalf("0-D table = %v", tot.At())
	}
}

func TestGroupByErrors(t *testing.T) {
	ds := retailDataset(t, 2, 50)
	cube, _, _ := Build(ds)
	if _, err := cube.GroupBy("bogus"); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := cube.GroupBy("item", "item"); err == nil {
		t.Fatal("repeated dimension accepted")
	}
}

func TestTableValueAndCSVAndTop(t *testing.T) {
	ds := NewDataset(retailSchema(t))
	_ = ds.Add(10, 1, 2, 3)
	_ = ds.Add(4, 1, 5, 3)
	cube, _, _ := Build(ds)
	tbl, _ := cube.GroupBy("branch")
	v, err := tbl.Value(map[string]int{"branch": 2})
	if err != nil || v != 10 {
		t.Fatalf("Value = %v, %v", v, err)
	}
	if _, err := tbl.Value(map[string]int{"item": 1}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if _, err := tbl.Value(map[string]int{}); err == nil {
		t.Fatal("missing coords accepted")
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "branch,value\n") {
		t.Fatalf("csv = %q", buf.String())
	}
	top := tbl.Top(2)
	if len(top) != 2 || top[0].Value != 10 || top[0].Coords[0] != 2 {
		t.Fatalf("Top = %+v", top)
	}
	if len(tbl.Top(100)) != 6 {
		t.Fatal("Top over-returns")
	}
}

func TestWithAggregator(t *testing.T) {
	ds := NewDataset(retailSchema(t))
	_ = ds.Add(5, 0, 0, 0)
	_ = ds.Add(9, 0, 1, 0)
	cube, _, err := Build(ds, WithAggregator(Max))
	if err != nil {
		t.Fatal(err)
	}
	byItem, _ := cube.GroupBy("item")
	if byItem.At(0) != 9 {
		t.Fatalf("max = %v", byItem.At(0))
	}
	if Sum.String() != "sum" || Count.String() != "count" {
		t.Fatal("aggregator names wrong")
	}
	if _, _, err := Build(retailDataset(t, 3, 5), WithAggregator(Aggregator(42))); err == nil {
		t.Fatal("bad aggregator accepted")
	}
}

func TestWithOrdering(t *testing.T) {
	ds := retailDataset(t, 4, 100)
	cube, _, err := Build(ds, WithOrdering("time", "item", "branch"))
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := Build(retailDataset(t, 4, 100))
	for _, names := range [][]string{{"item"}, {"branch", "time"}, {}} {
		a, _ := cube.GroupBy(names...)
		b, _ := ref.GroupBy(names...)
		for i := 0; i < a.Size(); i++ {
			if a.data.Data()[i] != b.data.Data()[i] {
				t.Fatalf("ordering changed results for %v", names)
			}
		}
	}
	if _, _, err := Build(retailDataset(t, 5, 5), WithOrdering("item")); err == nil {
		t.Fatal("partial ordering accepted")
	}
	if _, _, err := Build(retailDataset(t, 5, 5), WithOrdering("a", "b", "c")); err == nil {
		t.Fatal("unknown names accepted")
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	ds := retailDataset(t, 6, 300)
	pcube, report, err := BuildParallel(ds, ClusterSpec{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	scube, _, err := Build(retailDataset(t, 6, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"item"}, {"item", "branch"}, {"time"}, {}} {
		a, err := pcube.GroupBy(names...)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := scube.GroupBy(names...)
		for i := 0; i < a.Size(); i++ {
			if a.data.Data()[i] != b.data.Data()[i] {
				t.Fatalf("parallel differs for %v", names)
			}
		}
	}
	if report.CommElements != report.PredictedCommElements {
		t.Fatalf("measured %d != predicted %d", report.CommElements, report.PredictedCommElements)
	}
	if report.Processors != 8 || len(report.Partition) != 3 {
		t.Fatalf("report = %+v", report)
	}
}

func TestBuildParallelWithModeledTime(t *testing.T) {
	ds := retailDataset(t, 7, 400)
	_, report, err := BuildParallel(ds, ClusterSpec{
		Processors: 4,
		Network:    Network{LatencySec: 60e-6, BandwidthMBps: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.MakespanSec <= 0 || report.ModeledSequentialSec <= 0 {
		t.Fatalf("report times = %+v", report)
	}
	if report.ModeledSpeedup <= 1 {
		t.Fatalf("speedup = %v", report.ModeledSpeedup)
	}
}

// TestBuildParallelModeledSequentialExact: the modeled sequential time is
// the UltraII cost of the sequential build's own update count, bit for
// bit, and both modeled numbers keep the values they had when they were
// derived by running that build.
func TestBuildParallelModeledSequentialExact(t *testing.T) {
	for _, tc := range []struct {
		opts             []BuildOption
		seqBits, spdBits uint64
	}{
		{nil, 0x3f43a92a30553261, 0x3fffb43f93c889f9},
		{[]BuildOption{WithOrdering("time", "item", "branch"), WithAggregator(Max)}, 0x3f45097c80841ede, 0x400113a529924ce1},
	} {
		ds := retailDataset(t, 7, 400)
		_, report, err := BuildParallel(ds, ClusterSpec{
			Processors: 4,
			Network:    Network{LatencySec: 60e-6, BandwidthMBps: 50},
		}, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := Build(ds, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if want := cluster.UltraII().CostSec(stats.Updates); report.ModeledSequentialSec != want {
			t.Errorf("ModeledSequentialSec = %v, want %v from %d sequential updates", report.ModeledSequentialSec, want, stats.Updates)
		}
		if got := math.Float64bits(report.ModeledSequentialSec); got != tc.seqBits {
			t.Errorf("ModeledSequentialSec bits %#x, want %#x", got, tc.seqBits)
		}
		if got := math.Float64bits(report.ModeledSpeedup); got != tc.spdBits {
			t.Errorf("ModeledSpeedup bits %#x, want %#x", got, tc.spdBits)
		}
	}
}

func TestBuildParallelExplicitPartitionAndTCP(t *testing.T) {
	ds := retailDataset(t, 8, 200)
	cube, report, err := BuildParallel(ds, ClusterSpec{
		Processors: 4,
		Partition:  []int{1, 1, 0},
		Transport:  TCPTransport,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Partition[0] != 1 || report.Partition[1] != 1 || report.Partition[2] != 0 {
		t.Fatalf("partition = %v", report.Partition)
	}
	if cube.Total() <= 0 {
		t.Fatal("empty cube over TCP")
	}
}

func TestBuildParallelValidation(t *testing.T) {
	ds := retailDataset(t, 9, 10)
	if _, _, err := BuildParallel(ds, ClusterSpec{Processors: 3}); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, _, err := BuildParallel(ds, ClusterSpec{Processors: 0}); err == nil {
		t.Fatal("zero processors accepted")
	}
}

func TestPlanPartition(t *testing.T) {
	k, vol, err := PlanPartition([]int{64, 64, 64, 64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	dims := 0
	for _, kj := range k {
		cuts += kj
		if kj > 0 {
			dims++
		}
	}
	if cuts != 3 || dims != 3 {
		t.Fatalf("plan = %v", k)
	}
	if vol <= 0 {
		t.Fatalf("volume = %d", vol)
	}
	// The planned partition's predicted volume is minimal among a few
	// alternatives.
	for _, alt := range [][]int{{3, 0, 0, 0}, {2, 1, 0, 0}, {0, 0, 2, 1}} {
		av, err := PredictVolume([]int{64, 64, 64, 64}, alt)
		if err != nil {
			t.Fatal(err)
		}
		if av < vol {
			t.Fatalf("alternative %v beats plan: %d < %d", alt, av, vol)
		}
	}
	if _, _, err := PlanPartition([]int{64}, 3); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, _, err := PlanPartition([]int{0}, 2); err == nil {
		t.Fatal("bad sizes accepted")
	}
	if _, err := PredictVolume([]int{4, 4}, []int{1}); err == nil {
		t.Fatal("short partition accepted")
	}
	if _, err := PredictVolume([]int{4, 4}, []int{-1, 0}); err == nil {
		t.Fatal("negative cuts accepted")
	}
}

func TestCubeSnapshot(t *testing.T) {
	ds := retailDataset(t, 10, 100)
	cube, _, _ := Build(ds)
	var buf bytes.Buffer
	if err := cube.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty snapshot")
	}
}

func TestPredictRunMatchesSimulation(t *testing.T) {
	// The analytic prediction must land near a real simulated build of a
	// dataset with the same shape and density.
	ds := NewDataset(retailSchema(t))
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 600; i++ {
		_ = ds.Add(float64(rng.Intn(9)+1), rng.Intn(8), rng.Intn(6), rng.Intn(4))
	}
	cells := int64(ds.Cells())
	net := Network{LatencySec: 60e-6, BandwidthMBps: 50}
	pred, err := PredictRun([]int{8, 6, 4}, cells, 4, net)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := BuildParallel(ds, ClusterSpec{Processors: 4, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	ratio := pred.ParallelSec / report.MakespanSec
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("prediction %v vs simulation %v (ratio %.2f)", pred.ParallelSec, report.MakespanSec, ratio)
	}
	if pred.CommElements != report.PredictedCommElements {
		t.Fatalf("volume %d != %d", pred.CommElements, report.PredictedCommElements)
	}
	if pred.Speedup <= 1 {
		t.Fatalf("speedup = %v", pred.Speedup)
	}
}

func TestPredictRunValidation(t *testing.T) {
	net := Network{LatencySec: 1e-6, BandwidthMBps: 100}
	if _, err := PredictRun([]int{8, 8}, 10, 3, net); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := PredictRun([]int{8, 8}, 0, 2, net); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := PredictRun([]int{8, 8}, 1000, 2, net); err == nil {
		t.Fatal("over-full cells accepted")
	}
	if _, err := PredictRun([]int{0}, 1, 2, net); err == nil {
		t.Fatal("bad sizes accepted")
	}
}
