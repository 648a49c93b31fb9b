package seq

import (
	"fmt"
	"time"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/core"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/obs"
)

// Options configures a sequential build.
type Options struct {
	// Op is the aggregation operator; defaults to Sum.
	Op agg.Op
	// Ordering maps aggregation-tree positions to physical dimensions.
	// Defaults to the descending-size ordering Theorems 6/7 prove optimal.
	Ordering core.Ordering
	// Sink receives finalized group-bys. Defaults to a fresh Store, which
	// is then returned in Result.Cube.
	Sink Sink
}

// Stats reports what a build did.
type Stats struct {
	// Updates is the total number of accumulator updates.
	Updates int64
	// FirstLevelUpdates is the updates spent computing the root's children.
	FirstLevelUpdates int64
	// PeakResultElements is the maximum number of result elements
	// simultaneously held before write-back — the Theorem 1 quantity.
	PeakResultElements int64
	// MemoryBoundElements is the Theorem 1 bound for the build's ordered
	// shape; every build checks PeakResultElements against it at runtime.
	MemoryBoundElements int64
	// WriteBackElements / WriteBackArrays is the total write-back traffic.
	WriteBackElements int64
	WriteBackArrays   int
	// UpdatesByLevel[d] is the updates spent computing group-bys that drop
	// exactly d dimensions (level 1 = the root's children). Index 0 is
	// unused. It quantifies the paper's observation that the first level
	// dominates and is the fully parallelized part.
	UpdatesByLevel []int64
	// InputScans counts full passes over the initial array.
	InputScans int
	// Elapsed is the wall-clock build time.
	Elapsed time.Duration
}

// Result is a finished sequential build.
type Result struct {
	// Cube holds the group-bys when no custom sink was supplied.
	Cube  *Store
	Stats Stats
}

// Build constructs the full data cube from a sparse initial array using the
// aggregation tree (Figure 3). All 2^n - 1 proper group-bys are finalized
// exactly once; the initial array itself is the 2^n-th cube member.
func Build(input *array.Sparse, opts Options) (*Result, error) {
	return BuildFromSource(input, opts)
}

// BuildFromSource is Build over any chunk stream — in particular a
// cubeio.SparseScanner reading the initial array from disk one chunk at a
// time, so the input never needs to fit in memory (only the Theorem 1
// working set does). The source is consumed exactly once; an error it
// reports fails the build.
func BuildFromSource(input array.Source, opts Options) (*Result, error) {
	shape := input.Shape()
	n := shape.Rank()
	if opts.Op != agg.Sum && !opts.Op.Valid() {
		return nil, fmt.Errorf("seq: invalid operator %v", opts.Op)
	}
	ordering := opts.Ordering
	if ordering == nil {
		ordering = core.SortedOrdering(shape)
	}
	if err := ordering.Validate(n); err != nil {
		return nil, err
	}
	tree, err := core.Build(n)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	sink := opts.Sink
	if sink == nil {
		res.Cube = NewStore()
		sink = res.Cube
	}

	e := &engine{
		op:       opts.Op,
		ordering: ordering,
		shape:    shape,
		sink:     sink,
	}
	e.stats.UpdatesByLevel = make([]int64, n+1)
	start := time.Now()
	if err := e.evalRoot(tree.Root(), input); err != nil {
		return nil, err
	}
	res.Stats = e.stats
	res.Stats.PeakResultElements = e.tracker.Peak()
	res.Stats.MemoryBoundElements = core.MemoryBoundElements(ordering.Apply(shape))
	res.Stats.InputScans = 1
	res.Stats.Elapsed = time.Since(start)
	if e.tracker.Live() != 0 {
		return nil, fmt.Errorf("seq: %d result elements leaked", e.tracker.Live())
	}
	m := obs.Default
	m.Counter("seq.builds").Inc()
	m.Counter("seq.updates").Add(res.Stats.Updates)
	m.Counter("seq.writeback_elems").Add(res.Stats.WriteBackElements)
	m.Gauge("seq.peak_result_cells").Set(res.Stats.PeakResultElements)
	m.Gauge("seq.memory_bound_cells").Set(res.Stats.MemoryBoundElements)
	m.Histogram("seq.build_ns").Observe(res.Stats.Elapsed.Nanoseconds())
	if res.Stats.PeakResultElements > res.Stats.MemoryBoundElements {
		// Theorem 1 guarantees this cannot happen; a violation means the
		// traversal held memory it should have written back.
		m.Counter("seq.memory_bound_violations").Inc()
		return nil, fmt.Errorf("seq: peak result memory %d elements exceeds Theorem 1 bound %d",
			res.Stats.PeakResultElements, res.Stats.MemoryBoundElements)
	}
	return res, nil
}

// engine carries the traversal state of one build.
type engine struct {
	op       agg.Op
	ordering core.Ordering
	shape    nd.Shape
	sink     Sink
	tracker  Tracker
	stats    Stats
}

// physMask converts a node's retained-position mask to physical dimensions.
func (e *engine) physMask(node *core.Node) lattice.DimSet {
	return e.ordering.ToPhysical(node.Retained)
}

// shapeOf returns the dense shape of a node's group-by: the retained
// physical dimensions in ascending physical order.
func (e *engine) shapeOf(node *core.Node) nd.Shape {
	return e.shape.Keep(e.physMask(node).Dims())
}

// targetsFor allocates the children accumulators of node and pairs each with
// the axis it drops within the parent's physical axis list.
func (e *engine) targetsFor(node *core.Node) []array.Target {
	parentDims := e.physMask(node).Dims()
	axisOf := make(map[int]int, len(parentDims))
	for i, d := range parentDims {
		axisOf[d] = i
	}
	targets := make([]array.Target, len(node.Children))
	for i, c := range node.Children {
		dropDim := e.ordering[c.DropPos]
		child := array.NewDense(e.shapeOf(c), e.op)
		e.tracker.Alloc(int64(child.Size()))
		targets[i] = array.Target{Child: child, DropAxis: axisOf[dropDim]}
	}
	return targets
}

// evalRoot runs Evaluate on the root, whose chunks stream from the source.
func (e *engine) evalRoot(root *core.Node, input array.Source) error {
	targets := e.targetsFor(root)
	updates, err := array.ScanSource(input, targets, e.op, agg.FoldInput)
	if err != nil {
		return fmt.Errorf("seq: reading input: %w", err)
	}
	e.stats.Updates += updates
	e.stats.FirstLevelUpdates = updates
	e.stats.UpdatesByLevel[1] += updates
	return e.finishChildren(root, targets)
}

// eval runs Evaluate on an interior node whose dense array is already
// final. It computes all children in one scan, then recurses right to left,
// and finally writes the node's own array back.
func (e *engine) eval(node *core.Node, a *array.Dense) error {
	targets := e.targetsFor(node)
	updates := array.Scan(a, targets, e.op, agg.FoldPartial)
	e.stats.Updates += updates
	if level := node.Prefix.Count() + 1; level < len(e.stats.UpdatesByLevel) {
		e.stats.UpdatesByLevel[level] += updates
	}
	if err := e.finishChildren(node, targets); err != nil {
		return err
	}
	return e.writeBack(node, a)
}

// finishChildren visits computed children right to left, per Figure 3.
func (e *engine) finishChildren(node *core.Node, targets []array.Target) error {
	for i := len(node.Children) - 1; i >= 0; i-- {
		c := node.Children[i]
		if c.IsLeaf() {
			if err := e.writeBack(c, targets[i].Child); err != nil {
				return err
			}
			continue
		}
		if err := e.eval(c, targets[i].Child); err != nil {
			return err
		}
	}
	return nil
}

// writeBack hands a finalized array to the sink and releases its memory.
func (e *engine) writeBack(node *core.Node, a *array.Dense) error {
	if err := e.sink.WriteBack(e.physMask(node), a); err != nil {
		return err
	}
	e.tracker.Free(int64(a.Size()))
	e.stats.WriteBackElements += int64(a.Size())
	e.stats.WriteBackArrays++
	return nil
}
