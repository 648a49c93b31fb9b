package parallel

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/comm"
	"parcube/internal/core"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/obs"
	"parcube/internal/seq"
	"parcube/internal/theory"
)

// Options configures a parallel build.
type Options struct {
	// Op is the aggregation operator; defaults to Sum.
	Op agg.Op
	// Ordering maps aggregation-tree positions to physical dimensions;
	// defaults to the descending-size ordering (Theorems 6/7).
	Ordering core.Ordering
	// K is log2 of the slice count per *physical* dimension; the processor
	// count is 2^sum(K). Defaults to the greedy optimal partition
	// (Theorem 8) for the requested LogProcs.
	K []int
	// LogProcs is log2 of the processor count, used only when K is nil.
	LogProcs int
	// Network and Compute calibrate the virtual clocks; zero values cost
	// nothing (volume-only runs).
	Network cluster.NetworkProfile
	Compute cluster.ComputeProfile
	// Fabric optionally overrides the transport (e.g. TCP); default is the
	// in-process channel fabric.
	Fabric comm.Fabric
	// Reduce selects the reduction algorithm; default binomial.
	Reduce comm.ReduceAlgorithm
	// Trace records per-processor virtual-time event timelines in
	// Result.Report.Events.
	Trace bool
	// Replicate finalizes every group-by with an all-reduce instead of a
	// reduce: all processors of each reduction group end holding the
	// finalized portion (so any of them can serve queries locally),
	// costing exactly twice the Lemma 1 volume. An extension beyond the
	// paper, which keeps results only on lead processors.
	Replicate bool
	// ComputeScale optionally makes ranks heterogeneous (per-rank
	// multiplier on the compute cost); see cluster.Config.ComputeScale.
	ComputeScale []float64
}

// Stats aggregates a parallel build beyond the machine report.
type Stats struct {
	// TheoreticalVolumeElements is the Theorem 3 closed-form prediction.
	TheoreticalVolumeElements int64
	// MeasuredVolumeElements is what the transport actually moved.
	MeasuredVolumeElements int64
	// Updates and FirstLevelUpdates sum accumulator updates across
	// processors.
	Updates           int64
	FirstLevelUpdates int64
	// PerProcPeakElements is each processor's peak held result elements;
	// MaxPeakElements is their maximum (the Theorem 4 quantity), checked at
	// runtime against PeakBoundElements, the Theorem 4 bound.
	PerProcPeakElements []int64
	MaxPeakElements     int64
	PeakBoundElements   int64
	// WriteBackElements counts locally written-back result elements.
	WriteBackElements int64
	// MakespanSec is the modeled parallel execution time.
	MakespanSec float64
	// Elapsed is the host wall-clock time of the simulation.
	Elapsed time.Duration
}

// Result is a finished parallel build.
type Result struct {
	// Cube holds the assembled global group-bys (every proper group-by of
	// the cube; the full group-by is the distributed input itself).
	Cube *seq.Store
	// K is the partition actually used (log2 slices per physical dim).
	K []int
	// Report is the per-processor machine accounting.
	Report *cluster.Report
	Stats  Stats
}

// Build runs the Figure 5 algorithm over a simulated machine and returns
// the assembled cube with full accounting.
func Build(input *array.Sparse, opts Options) (*Result, error) {
	shape := input.Shape()
	n := shape.Rank()
	if opts.Op != agg.Sum && !opts.Op.Valid() {
		return nil, fmt.Errorf("parallel: invalid operator %v", opts.Op)
	}
	ordering := opts.Ordering
	if ordering == nil {
		ordering = core.SortedOrdering(shape)
	}
	if err := ordering.Validate(n); err != nil {
		return nil, err
	}
	ordered := ordering.Apply(shape)

	k := opts.K
	if k == nil {
		orderedK, err := theory.GreedyPartition(ordered, opts.LogProcs)
		if err != nil {
			return nil, err
		}
		// Map position-space cuts back to physical dimensions.
		k = make([]int, n)
		for j, d := range ordering {
			k[d] = orderedK[j]
		}
	}
	if len(k) != n {
		return nil, fmt.Errorf("parallel: K %v does not match rank %d", k, n)
	}
	orderedK := make([]int, n)
	for j, d := range ordering {
		orderedK[j] = k[d]
	}

	grid, err := cluster.NewGrid(theory.PartsOf(k))
	if err != nil {
		return nil, err
	}
	locals, blocks, err := PartitionInput(input, grid)
	if err != nil {
		return nil, err
	}
	tree, err := core.Build(n)
	if err != nil {
		return nil, err
	}

	// Theorem 4 bounds what any processor holds at once, so each one's
	// accumulators live on one stack of exactly that many cells.
	bound := core.PerProcessorMemoryBoundElements(ordered, theory.PartsOf(orderedK))
	stacks := getStacks(grid.Size(), bound)

	res := &Result{Cube: seq.NewStore(), K: k}
	asm := &assembler{shape: shape, op: opts.Op, store: res.Cube}
	peaks := make([]int64, grid.Size())
	var mu sync.Mutex // guards cross-proc Stats fields below
	start := time.Now()
	report, err := cluster.Run(cluster.Config{
		Parts:        grid.Parts(),
		Network:      opts.Network,
		Compute:      opts.Compute,
		Fabric:       opts.Fabric,
		Trace:        opts.Trace,
		ComputeScale: opts.ComputeScale,
	}, func(p *cluster.Proc) error {
		w := &worker{
			proc:      p,
			op:        opts.Op,
			ordering:  ordering,
			block:     blocks[p.Rank()],
			algo:      opts.Reduce,
			asm:       asm,
			replicate: opts.Replicate,
			stack:     stacks[p.Rank()],
		}
		if err := w.evalRoot(tree.Root(), locals[p.Rank()]); err != nil {
			return err
		}
		if w.stack.top != 0 {
			return fmt.Errorf("parallel: rank %d leaked %d result elements", p.Rank(), w.stack.top)
		}
		peaks[p.Rank()] = int64(w.stack.peak)
		mu.Lock()
		res.Stats.WriteBackElements += w.writeBackElements
		res.Stats.FirstLevelUpdates += w.firstLevelUpdates
		mu.Unlock()
		return nil
	})
	// Run has joined every rank, failed or not: nothing touches the
	// stacks any more, and every fabric copied or wrote out what was
	// sent from them before Send returned.
	putStacks(stacks)
	if err != nil {
		return nil, err
	}

	res.Report = report
	res.Stats.Elapsed = time.Since(start)
	res.Stats.MakespanSec = report.MakespanSec
	res.Stats.Updates = report.TotalUpdates
	res.Stats.MeasuredVolumeElements = report.TotalElementsSent
	res.Stats.TheoreticalVolumeElements = theory.TotalVolume(ordered, orderedK)
	if opts.Replicate {
		// All-reduce moves the reduce volume up and the same volume back
		// down (binomial broadcast also sends (g-1) slabs per group).
		res.Stats.TheoreticalVolumeElements *= 2
	}
	res.Stats.PerProcPeakElements = peaks
	for _, pk := range peaks {
		if pk > res.Stats.MaxPeakElements {
			res.Stats.MaxPeakElements = pk
		}
	}
	res.Stats.PeakBoundElements = bound

	m := obs.Default
	m.Counter("parallel.builds").Inc()
	m.Counter("parallel.updates").Add(res.Stats.Updates)
	m.Counter("parallel.comm.measured_elems").Add(res.Stats.MeasuredVolumeElements)
	m.Counter("parallel.comm.predicted_elems").Add(res.Stats.TheoreticalVolumeElements)
	m.Counter("parallel.comm.bytes").Add(report.TotalBytesSent)
	m.Counter("parallel.comm.messages").Add(report.TotalMessages)
	m.Gauge("parallel.peak_cells").Set(res.Stats.MaxPeakElements)
	m.Gauge("parallel.peak_bound_cells").Set(res.Stats.PeakBoundElements)
	m.Histogram("parallel.build_ns").Observe(res.Stats.Elapsed.Nanoseconds())

	// Runtime self-validation of the paper's two central claims: the
	// transport-measured volume must equal the Theorem 3 closed form, and
	// no processor may hold more result memory than the Theorem 4 bound
	// (enforced as it happens, by each processor's accumulator stack).
	if res.Stats.MeasuredVolumeElements != res.Stats.TheoreticalVolumeElements {
		m.Counter("parallel.volume_mismatches").Inc()
		return nil, fmt.Errorf("parallel: measured volume %d != Theorem 3 prediction %d",
			res.Stats.MeasuredVolumeElements, res.Stats.TheoreticalVolumeElements)
	}
	return res, nil
}

// memoryBoundViolations counts accumulator pushes past the Theorem 4
// bound.
var memoryBoundViolations = obs.Default.Counter("parallel.memory_bound_violations")

// assembler collects finalized local slabs into global group-by arrays.
// Write-backs model local disk writes; they do not touch the fabric or the
// virtual clocks.
type assembler struct {
	mu    sync.Mutex
	shape nd.Shape
	op    agg.Op
	store *seq.Store

	arrays map[lattice.DimSet]*array.Dense
	filled map[lattice.DimSet]int64
}

// place merges one processor's finalized slab of the group-by `mask` whose
// origin within the global array is lo. When the group-by is complete it is
// moved into the store.
//
// The lock covers only the bookkeeping. The fold runs unlocked: each cell
// of a group-by is finalized on exactly one lead processor, so the slabs
// of one group-by are disjoint and concurrent folds touch distinct cells.
// A slab is counted into filled only after its fold, so the worker that
// completes the count sees every fold done.
func (a *assembler) place(mask lattice.DimSet, slab *array.Dense, lo []int) error {
	a.mu.Lock()
	if a.arrays == nil {
		a.arrays = make(map[lattice.DimSet]*array.Dense)
		a.filled = make(map[lattice.DimSet]int64)
	}
	g, ok := a.arrays[mask]
	if !ok {
		g = array.NewDense(a.shape.Keep(mask.Dims()), a.op)
		a.arrays[mask] = g
	}
	a.mu.Unlock()

	g.CombineAt(slab, lo, a.op)

	a.mu.Lock()
	a.filled[mask] += int64(slab.Size())
	filled := a.filled[mask]
	if filled == int64(g.Size()) {
		delete(a.arrays, mask)
		delete(a.filled, mask)
	}
	a.mu.Unlock()
	if filled > int64(g.Size()) {
		return fmt.Errorf("parallel: group-by %b overfilled", mask)
	}
	if filled == int64(g.Size()) {
		return a.store.WriteBack(mask, g)
	}
	return nil
}

// worker is one processor's traversal state.
type worker struct {
	proc      *cluster.Proc
	op        agg.Op
	ordering  core.Ordering
	block     nd.Block
	algo      comm.ReduceAlgorithm
	asm       *assembler
	replicate bool
	stack     *accStack

	writeBackElements int64
	firstLevelUpdates int64
}

// physMask converts retained positions to physical dimensions.
func (w *worker) physMask(node *core.Node) lattice.DimSet {
	return w.ordering.ToPhysical(node.Retained)
}

// localShape returns the worker's slab shape for a node: its block extents
// on the retained physical dimensions, ascending.
func (w *worker) localShape(node *core.Node) nd.Shape {
	return w.block.Shape().Keep(w.physMask(node).Dims())
}

// targetsFor pushes local child accumulators for a node's children onto
// the worker's stack, in child order.
func (w *worker) targetsFor(node *core.Node) ([]array.Target, error) {
	parentDims := w.physMask(node).Dims()
	targets := make([]array.Target, len(node.Children))
	for i, c := range node.Children {
		child, err := w.stack.push(w.localShape(c), w.op)
		if err != nil {
			return nil, err
		}
		targets[i] = array.Target{Child: child, DropAxis: slices.Index(parentDims, w.ordering[c.DropPos])}
	}
	return targets, nil
}

// evalRoot computes the root's children from the local sparse block, then
// finalizes them. Every processor participates at the root.
func (w *worker) evalRoot(root *core.Node, local *array.Sparse) error {
	targets, err := w.targetsFor(root)
	if err != nil {
		return err
	}
	updates := array.ScanSparse(local, targets, w.op, agg.FoldInput)
	w.proc.Compute(updates)
	w.firstLevelUpdates = updates
	return w.finishChildren(root, targets)
}

// eval processes an interior node this worker leads: compute all children
// locally in one scan, then finalize right to left, then write the node's
// own finalized slab back.
func (w *worker) eval(node *core.Node, a *array.Dense) error {
	targets, err := w.targetsFor(node)
	if err != nil {
		return err
	}
	w.proc.Compute(array.Scan(a, targets, w.op, agg.FoldPartial))
	if err := w.finishChildren(node, targets); err != nil {
		return err
	}
	return w.writeBack(node, a)
}

// finishChildren reduces each child along its dropped dimension onto the
// lead processors and recurses on the leads, right to left (Figure 5).
// Each child is released after its own subtree, so children leave the
// stack in the reverse of the order targetsFor pushed them.
func (w *worker) finishChildren(node *core.Node, targets []array.Target) error {
	label := w.proc.Label()
	for i := len(node.Children) - 1; i >= 0; i-- {
		c := node.Children[i]
		child := targets[i].Child
		dropDim := w.ordering[c.DropPos]
		group := w.proc.Grid().GroupAlong(label, dropDim)
		tag := comm.Tag(w.physMask(c))
		if w.replicate {
			if err := comm.AllReduce(w.proc, group, label[dropDim], child.Data(), w.op, tag, w.algo); err != nil {
				return err
			}
		} else if err := comm.Reduce(w.proc, group, label[dropDim], child.Data(), w.op, tag, w.algo); err != nil {
			return err
		}
		if label[dropDim] != 0 {
			// Not the lead along the aggregated dimension: the partial has
			// been folded away; this processor is done with the subtree.
			if err := w.stack.pop(child); err != nil {
				return err
			}
			continue
		}
		if c.IsLeaf() {
			if err := w.writeBack(c, child); err != nil {
				return err
			}
			continue
		}
		if err := w.eval(c, child); err != nil {
			return err
		}
	}
	return nil
}

// writeBack hands a finalized local slab to the assembler and pops it.
func (w *worker) writeBack(node *core.Node, a *array.Dense) error {
	mask := w.physMask(node)
	dims := mask.Dims()
	lo := make([]int, len(dims))
	for i, d := range dims {
		lo[i] = w.block.Lo[d]
	}
	if err := w.asm.place(mask, a, lo); err != nil {
		return err
	}
	w.writeBackElements += int64(a.Size())
	return w.stack.pop(a)
}
