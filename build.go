package parcube

import (
	"fmt"

	"parcube/internal/cluster"
	"parcube/internal/comm"
	"parcube/internal/core"
	"parcube/internal/cost"
	"parcube/internal/parallel"
	"parcube/internal/seq"
	"parcube/internal/theory"
)

// BuildOption customizes Build and BuildParallel.
type BuildOption func(*buildConfig)

type buildConfig struct {
	agg           Aggregator
	ordering      core.Ordering
	orderingNames []string
}

// WithAggregator selects the aggregation operator (default Sum).
func WithAggregator(a Aggregator) BuildOption {
	return func(c *buildConfig) { c.agg = a }
}

// WithOrdering overrides the dimension ordering of the aggregation tree by
// name, from the tree's first position to its last. The default is the
// descending-size ordering, which the paper proves optimal for both
// computation (Theorem 7) and communication (Theorem 6); override it only
// to study suboptimal orderings.
func WithOrdering(names ...string) BuildOption {
	return func(c *buildConfig) { c.orderingNames = names }
}

// BuildStats reports what a sequential build did.
type BuildStats struct {
	// Updates is the number of aggregation updates performed.
	Updates int64
	// PeakMemoryElements is the maximum number of result cells held before
	// write-back — guaranteed to stay within the paper's Theorem 1 bound.
	PeakMemoryElements int64
	// MemoryBoundElements is that Theorem 1 bound for this dataset.
	MemoryBoundElements int64
}

// Build constructs the full data cube sequentially with the aggregation
// tree. The dataset is frozen by the call.
func Build(d *Dataset, opts ...BuildOption) (*Cube, *BuildStats, error) {
	cfg, err := resolveOptions(d, opts)
	if err != nil {
		return nil, nil, err
	}
	input := d.freeze()
	res, err := seq.Build(input, seq.Options{Op: cfg.agg.op(), Ordering: cfg.ordering})
	if err != nil {
		return nil, nil, err
	}
	cube := &Cube{schema: d.schema, store: res.Cube, input: input, op: cfg.agg.op()}
	stats := &BuildStats{
		Updates:             res.Stats.Updates,
		PeakMemoryElements:  res.Stats.PeakResultElements,
		MemoryBoundElements: res.Stats.MemoryBoundElements,
	}
	return cube, stats, nil
}

// Transport selects the message-passing fabric of the simulated cluster.
type Transport int

const (
	// ChannelTransport moves messages through in-process channels (default).
	ChannelTransport Transport = iota
	// TCPTransport moves messages over loopback TCP connections with the
	// library's binary framing — the same algorithm on a real network path.
	TCPTransport
)

// Network configures the modeled interconnect of the simulated cluster.
type Network struct {
	// LatencySec is the per-message latency in seconds.
	LatencySec float64
	// BandwidthMBps is the point-to-point bandwidth in megabytes/second
	// (0 = infinite).
	BandwidthMBps float64
}

// ClusterSpec describes the simulated machine for BuildParallel.
type ClusterSpec struct {
	// Processors is the machine size; it must be a power of two (the
	// paper's standing assumption).
	Processors int
	// Partition optionally fixes log2 of the slice count per dimension (in
	// schema order; must sum to log2(Processors)). When nil the greedy
	// communication-optimal partition (Theorem 8) is used.
	Partition []int
	// Network is the interconnect model; the zero value is a free network.
	// BuildParallel's modeled times only make sense with a non-zero model;
	// communication volumes are exact either way.
	Network Network
	// Transport selects the fabric; default in-process channels.
	Transport Transport
}

// ParallelReport describes a finished parallel build.
type ParallelReport struct {
	// Processors and Partition echo the machine actually used; Partition
	// is log2 slices per dimension, in schema order.
	Processors int
	Partition  []int
	// CommElements is the measured interprocessor communication volume in
	// array elements; PredictedCommElements is the paper's Theorem 3
	// closed form. The two are equal by construction — the equality is
	// re-checked on every build.
	CommElements          int64
	PredictedCommElements int64
	// CommBytes is the wire traffic including message headers.
	CommBytes int64
	// Messages is the number of point-to-point messages.
	Messages int64
	// MakespanSec is the modeled parallel execution time on the calibrated
	// virtual clocks (LogP-style model over the UltraII compute profile).
	MakespanSec float64
	// ModeledSequentialSec is the modeled one-processor time for the same
	// build (the sequential update count, in closed form, on the UltraII
	// profile), and ModeledSpeedup their ratio.
	ModeledSequentialSec float64
	ModeledSpeedup       float64
	// MaxPeakMemoryElements is the largest per-processor intermediate
	// memory, bounded by the paper's Theorem 4.
	MaxPeakMemoryElements int64
}

// BuildParallel constructs the cube on a simulated shared-nothing cluster
// (the paper's Figure 5 algorithm). Results are identical to Build; the
// report carries the communication and timing model outputs.
func BuildParallel(d *Dataset, spec ClusterSpec, opts ...BuildOption) (*Cube, *ParallelReport, error) {
	cfg, err := resolveOptions(d, opts)
	if err != nil {
		return nil, nil, err
	}
	if spec.Processors < 1 || spec.Processors&(spec.Processors-1) != 0 {
		return nil, nil, fmt.Errorf("parcube: processors must be a power of two, got %d", spec.Processors)
	}
	logP := 0
	for 1<<uint(logP) < spec.Processors {
		logP++
	}
	input := d.freeze()

	var fabric comm.Fabric
	if spec.Transport == TCPTransport {
		f, err := comm.NewTCPFabric(spec.Processors)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		fabric = f
	}
	network := cluster.NetworkProfile{
		LatencySec:           spec.Network.LatencySec,
		BandwidthBytesPerSec: spec.Network.BandwidthMBps * 1e6,
	}
	res, err := parallel.Build(input, parallel.Options{
		Op:       cfg.agg.op(),
		Ordering: cfg.ordering,
		K:        spec.Partition,
		LogProcs: logP,
		Network:  network,
		Compute:  cluster.UltraII(),
		Fabric:   fabric,
	})
	if err != nil {
		return nil, nil, err
	}
	cube := &Cube{schema: d.schema, store: res.Cube, input: input, op: cfg.agg.op()}

	// The sequential build's update count is a closed form of the ordered
	// shape and the stored-cell count, so no sequential build runs here.
	ordering := cfg.ordering
	if ordering == nil {
		ordering = core.SortedOrdering(input.Shape())
	}
	seqUpdates := core.SequentialUpdates(ordering.Apply(input.Shape()), int64(input.NNZ()))
	seqSec := cluster.UltraII().CostSec(seqUpdates)
	report := &ParallelReport{
		Processors:            spec.Processors,
		Partition:             res.K,
		CommElements:          res.Stats.MeasuredVolumeElements,
		PredictedCommElements: res.Stats.TheoreticalVolumeElements,
		CommBytes:             res.Report.TotalBytesSent,
		Messages:              res.Report.TotalMessages,
		MakespanSec:           res.Stats.MakespanSec,
		ModeledSequentialSec:  seqSec,
		MaxPeakMemoryElements: res.Stats.MaxPeakElements,
	}
	if report.MakespanSec > 0 {
		report.ModeledSpeedup = seqSec / report.MakespanSec
	}
	return cube, report, nil
}

// PlanPartition returns the communication-optimal partition (log2 slices
// per dimension, schema order) for the given dimension sizes and processor
// count, with the predicted communication volume in elements — the paper's
// Figure 6 greedy algorithm, proved optimal by Theorem 8.
func PlanPartition(sizes []int, processors int) ([]int, int64, error) {
	if processors < 1 || processors&(processors-1) != 0 {
		return nil, 0, fmt.Errorf("parcube: processors must be a power of two, got %d", processors)
	}
	shape, err := shapeOf(sizes)
	if err != nil {
		return nil, 0, err
	}
	logP := 0
	for 1<<uint(logP) < processors {
		logP++
	}
	ordering := core.SortedOrdering(shape)
	ordered := ordering.Apply(shape)
	orderedK, err := theory.GreedyPartition(ordered, logP)
	if err != nil {
		return nil, 0, err
	}
	k := make([]int, len(sizes))
	for j, d := range ordering {
		k[d] = orderedK[j]
	}
	return k, theory.TotalVolumeClosedForm(ordered, orderedK), nil
}

// PredictVolume returns the Theorem 3 communication volume (in elements)
// for an explicit partition: log2 slices per dimension, schema order.
func PredictVolume(sizes []int, partition []int) (int64, error) {
	shape, err := shapeOf(sizes)
	if err != nil {
		return 0, err
	}
	if len(partition) != len(sizes) {
		return 0, fmt.Errorf("parcube: partition has %d entries for %d dimensions", len(partition), len(sizes))
	}
	ordering := core.SortedOrdering(shape)
	ordered := ordering.Apply(shape)
	orderedK := make([]int, len(partition))
	for j, d := range ordering {
		if partition[d] < 0 {
			return 0, fmt.Errorf("parcube: negative cut count on dimension %d", d)
		}
		orderedK[j] = partition[d]
	}
	return theory.TotalVolumeClosedForm(ordered, orderedK), nil
}

// Prediction is the analytic estimate PredictRun returns: what a cluster
// of the given size would do for this dataset, computed from the paper's
// closed forms plus the alpha-beta network model — no simulation, no data.
type Prediction struct {
	// Partition is the communication-optimal partition (log2 slices per
	// dimension, schema order).
	Partition []int
	// CommElements is the Theorem 3 volume for that partition.
	CommElements int64
	// SequentialSec, ParallelSec and Speedup are modeled times on the
	// calibrated profiles.
	SequentialSec float64
	ParallelSec   float64
	Speedup       float64
}

// PredictRun sizes a cluster analytically: given the dimension sizes, the
// expected number of stored cells, a processor count, and a network model,
// it returns the optimal partition and the modeled times. Validated
// against the discrete-event simulator to within ~1% (experiment M1).
func PredictRun(sizes []int, storedCells int64, processors int, network Network) (*Prediction, error) {
	k, volume, err := PlanPartition(sizes, processors)
	if err != nil {
		return nil, err
	}
	shape, err := shapeOf(sizes)
	if err != nil {
		return nil, err
	}
	if storedCells < 1 || storedCells > int64(shape.Size()) {
		return nil, fmt.Errorf("parcube: stored cell count %d outside [1, %d]", storedCells, shape.Size())
	}
	ordering := core.SortedOrdering(shape)
	orderedK := make([]int, len(k))
	for j, d := range ordering {
		orderedK[j] = k[d]
	}
	p, err := cost.Predict(cost.Inputs{
		Sizes: ordering.Apply(shape),
		K:     orderedK,
		NNZ:   storedCells,
		Network: cluster.NetworkProfile{
			LatencySec:           network.LatencySec,
			BandwidthBytesPerSec: network.BandwidthMBps * 1e6,
		},
		Compute: cluster.UltraII(),
	})
	if err != nil {
		return nil, err
	}
	return &Prediction{
		Partition:     k,
		CommElements:  volume,
		SequentialSec: p.SequentialSec,
		ParallelSec:   p.ParallelSec,
		Speedup:       p.Speedup,
	}, nil
}
