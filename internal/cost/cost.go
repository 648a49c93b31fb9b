// Package cost predicts parallel cube-construction time analytically —
// no simulation, just the paper's formulas plus the alpha-beta network
// model. It walks the aggregation tree along the lead processor's timeline
// (the critical path: the all-zero label leads every reduction and every
// recursion level) and accumulates compute and reduction costs. The
// prediction is validated against the discrete-event simulator in the
// model-validation experiment; it is what a practitioner would use to size
// a cluster without running anything.
package cost

import (
	"parcube/internal/cluster"
	"parcube/internal/comm"
	"parcube/internal/core"
	"parcube/internal/nd"
)

// Inputs describes a planned run in position space (sizes already ordered,
// k aligned with them).
type Inputs struct {
	// Sizes are the dimension extents in position space.
	Sizes nd.Shape
	// K is log2 slices per position.
	K []int
	// NNZ is the stored-cell count of the sparse input.
	NNZ int64
	// Network and Compute are the cost profiles.
	Network cluster.NetworkProfile
	Compute cluster.ComputeProfile
}

// Prediction is the analytic output.
type Prediction struct {
	// SequentialSec is the modeled one-processor time.
	SequentialSec float64
	// ParallelSec is the modeled lead-processor (critical path) time.
	ParallelSec float64
	// Speedup is their ratio.
	Speedup float64
	// ComputeSec and CommSec split ParallelSec.
	ComputeSec float64
	CommSec    float64
}

// Predict computes the analytic estimate.
func Predict(in Inputs) (Prediction, error) {
	tree, err := core.Build(in.Sizes.Rank())
	if err != nil {
		return Prediction{}, err
	}
	n := in.Sizes.Rank()

	// The lead processor's local extent per position (ceil split).
	local := make([]int64, n)
	procs := int64(1)
	for j := 0; j < n; j++ {
		parts := int64(1) << uint(in.K[j])
		local[j] = (int64(in.Sizes[j]) + parts - 1) / parts
		procs *= parts
	}

	// localSize returns the lead's slab cells for a node.
	localSize := func(node *core.Node) int64 {
		s := int64(1)
		for j := 0; j < n; j++ {
			if node.Retained.Has(j) {
				s *= local[j]
			}
		}
		return s
	}

	var p Prediction
	// First level: scanning the lead's share of the sparse input updates
	// all n children per stored cell.
	firstScan := in.Compute.CostSec(in.NNZ / procs * int64(n))
	p.ComputeSec += firstScan

	// Walk the tree along the lead's timeline: for every interior node the
	// lead owns, one dense scan (|local node| updates per child), and for
	// every child a binomial reduction of k_j rounds over the child slab.
	var walk func(node *core.Node)
	walk = func(node *core.Node) {
		if node != tree.Root() {
			scan := in.Compute.CostSec(localSize(node) * int64(len(node.Children)))
			p.ComputeSec += scan
		}
		for _, c := range node.Children {
			j := c.DropPos
			if in.K[j] > 0 {
				slabBytes := comm.WireBytes(int(localSize(c)))
				p.CommSec += float64(in.K[j]) * in.Network.TransferSec(slabBytes)
			}
			walk(c)
		}
	}
	walk(tree.Root())
	p.ParallelSec = p.ComputeSec + p.CommSec

	// Sequential: one sparse scan of the whole input plus dense scans of
	// every interior node at full size.
	p.SequentialSec = in.Compute.CostSec(core.SequentialUpdates(in.Sizes, in.NNZ))
	if p.ParallelSec > 0 {
		p.Speedup = p.SequentialSec / p.ParallelSec
	}
	return p, nil
}
