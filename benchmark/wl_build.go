package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"parcube"
	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/parallel"
	"parcube/internal/seq"
)

// buildInput is the build workload's set-up product.
type buildInput struct {
	sparse *array.Sparse
	ds     *parcube.Dataset
}

func setupBuild(seed int64) (*buildInput, error) {
	sp, ds, err := genBuildInput(seed)
	if err != nil {
		return nil, err
	}
	return &buildInput{sparse: sp, ds: ds}, nil
}

// buildPair runs both engines once on ds, timing each, and holds the
// results to the paper's claims: the two cubes are equal cell for cell,
// the communication volume is the Theorem 3 prediction, and both peaks
// are within their theorem's bound.
type buildPair struct {
	seqSec, parSec float64
	stats          *parcube.BuildStats
	report         *parcube.ParallelReport
}

func runBuildPair(ds *parcube.Dataset, a, b *bytes.Buffer) (buildPair, error) {
	var p buildPair
	t := time.Now()
	seqCube, stats, err := parcube.Build(ds)
	p.seqSec = time.Since(t).Seconds()
	if err != nil {
		return p, fmt.Errorf("Build: %w", err)
	}
	t = time.Now()
	parCube, rep, err := parcube.BuildParallel(ds, parcube.ClusterSpec{Processors: buildProcessors, Network: paperNetwork})
	p.parSec = time.Since(t).Seconds()
	if err != nil {
		return p, fmt.Errorf("BuildParallel: %w", err)
	}
	p.stats, p.report = stats, rep

	// Snapshots list every group-by in mask order with its raw float64
	// cells, so equal bytes are equal cubes cell for cell.
	a.Reset()
	b.Reset()
	if err := seqCube.WriteSnapshot(a); err != nil {
		return p, err
	}
	if err := parCube.WriteSnapshot(b); err != nil {
		return p, err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return p, fmt.Errorf("Build and BuildParallel cubes differ")
	}
	if rep.CommElements != rep.PredictedCommElements {
		return p, fmt.Errorf("communication volume %d != Theorem 3 prediction %d", rep.CommElements, rep.PredictedCommElements)
	}
	if stats.PeakMemoryElements > stats.MemoryBoundElements {
		return p, fmt.Errorf("sequential peak %d above the Theorem 1 bound %d", stats.PeakMemoryElements, stats.MemoryBoundElements)
	}
	// The parallel engine publishes its Theorem 4 bound in the library's
	// public registry next to the peak it measured.
	if bound := parcube.Metrics()["parallel.peak_bound_cells"]; rep.MaxPeakMemoryElements > bound {
		return p, fmt.Errorf("per-processor peak %d above the Theorem 4 bound %d", rep.MaxPeakMemoryElements, bound)
	}
	return p, nil
}

// runBuild alternates Build and BuildParallel on one dataset for the
// whole run: the paper's own experiment, with no serving or durability
// layer involved.
func runBuild(cfg runConfig, res *result) error {
	var in *buildInput
	setup, err := timeSetups(cfg, func() (err error) { in, err = setupBuild(cfg.seed); return err }, func() error { in = nil; return nil })
	if err != nil {
		return err
	}
	res.setupS = setup

	var a, b bytes.Buffer
	if _, err := runBuildPair(in.ds, &a, &b); err != nil { // warm-up, untimed
		return err
	}
	var seqS, parS []float64
	var last buildPair
	cfg.tr.setPhase("main")
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		res.attempted++
		start := time.Now()
		p, err := runBuildPair(in.ds, &a, &b)
		if err != nil {
			res.failed++
			res.note("build pair: %v", err)
			continue
		}
		if cfg.tr != nil {
			mid := start.Add(time.Duration(p.seqSec * float64(time.Second)))
			cfg.tr.record("parcube.Build", -1, start, mid)
			cfg.tr.record("parcube.BuildParallel", -1, mid, mid.Add(time.Duration(p.parSec*float64(time.Second))))
		}
		seqS, parS, last = append(seqS, p.seqSec), append(parS, p.parSec), p
	}
	if len(seqS) == 0 {
		return fmt.Errorf("no build pair completed")
	}
	res.measuredDone()

	peak := max(last.stats.PeakMemoryElements, last.report.MaxPeakMemoryElements)
	res.detail["build_seq_s"] = median(seqS)
	res.detail["build_par_s"] = median(parS)

	parSorted := sortedCopy(parS)
	res.e2e["ops_per_s"] = float64(len(seqS)) / (sum(seqS) + sum(parS))
	res.e2e["op_p50_ms"] = percentile(parSorted, 0.5) * 1e3
	res.e2e["op_tail_ms"] = percentile(parSorted, 0.9) * 1e3
	res.e2e["alt_p50_ms"] = median(seqS) * 1e3
	res.e2e["build_comm_elems"] = float64(last.report.CommElements)
	res.e2e["build_peak_elems"] = float64(peak)
	res.ops = int64(len(seqS))

	if cfg.tr != nil {
		if err := buildLayerMetrics(in, res, median(seqS), median(parS)); err != nil {
			return err
		}
	}
	return nil
}

// buildLayerMetrics calls the engines and kernels directly on the run's
// input for the counts and timings the public API does not return.
func buildLayerMetrics(in *buildInput, res *result, seqS, parS float64) error {
	L := res.layer
	sres, err := seq.Build(in.sparse, seq.Options{})
	if err != nil {
		return err
	}
	ss := sres.Stats
	L["seq.updates"] = float64(ss.Updates)
	L["seq.first_level_share"] = float64(ss.FirstLevelUpdates) / float64(ss.Updates)
	L["seq.input_scans"] = float64(ss.InputScans)
	L["seq.ns_per_update"] = float64(ss.Elapsed.Nanoseconds()) / float64(ss.Updates)

	pres, err := parallel.Build(in.sparse, parallel.Options{LogProcs: 3, Network: cluster.Cluster2003(), Compute: cluster.UltraII()})
	if err != nil {
		return err
	}
	ps := pres.Stats
	L["parallel.first_level_updates"] = float64(ps.FirstLevelUpdates)
	L["parallel.writeback_elems"] = float64(ps.WriteBackElements)
	L["parallel.wall_over_seq"] = parS / seqS
	L["cluster.modeled_makespan_s"] = ps.MakespanSec
	L["cluster.modeled_speedup"] = cluster.UltraII().CostSec(ss.Updates) / ps.MakespanSec
	L["comm.messages"] = float64(pres.Report.TotalMessages)
	L["comm.bytes"] = float64(pres.Report.TotalBytesSent)

	k, err := probeKernels(in.sparse)
	if err != nil {
		return err
	}
	L["array.scan_sparse_ns_per_update"] = k.scanSparseNsPerUpdate
	L["array.scan_dense_ns_per_update"] = k.scanDenseNsPerUpdate
	L["array.combine_at_ns_per_elem"] = k.combineAtNsPerElem
	L["array.scan_bytes_per_update"] = k.scanBytesPerUpdate

	// The largest slab a reduction moves: one processor's share of the
	// largest first-level child.
	shape := in.sparse.Shape()
	slab := shape.Size() / slices.Min(shape) / buildProcessors
	if L["comm.reduce_us"], err = probeReduce(slab); err != nil {
		return err
	}
	if L["theory.greedy_partition_us"], err = probeGreedy(shape); err != nil {
		return err
	}
	L["parallel.partition_input_ms"], err = probePartitionInput(in.sparse, pres.K)
	return err
}
