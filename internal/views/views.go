// Package views implements partial data cube materialization, the future
// work the paper points at in its conclusion ("we believe that the results
// we have obtained here could form the basis for work on partial data cube
// construction"). It provides the classic benefit-greedy view selection of
// Harinarayan, Rajaraman and Ullman (reference [6] of the paper) over the
// same lattice the full-cube algorithms use, plus a query router that
// answers any group-by from its cheapest materialized ancestor.
package views

import (
	"fmt"
	"sort"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
)

// Selection is the result of view selection.
type Selection struct {
	// Views are the chosen group-bys, in pick order (the root is implicit
	// and always available).
	Views []lattice.DimSet
	// TotalBenefit is the accumulated benefit of the picks, in cost units
	// (cells scanned per uniform query workload).
	TotalBenefit int64
}

// SelectGreedy picks up to budget group-bys to materialize, maximizing the
// benefit under the linear cost model: answering query q from materialized
// view v (v a superset of q) costs size(v) cell scans; the root is always
// available at rootCost (pass the input's stored-cell count for sparse
// inputs, or l.SizeOf(full) for the classic dense model). Each round picks
// the view with the largest total cost reduction over all queries, the 1-1/e
// approximation of the optimal selection.
func SelectGreedy(l *lattice.Lattice, budget int, rootCost int64) Selection {
	n := l.N()
	full := lattice.Full(n)
	if rootCost <= 0 {
		rootCost = l.SizeOf(full)
	}
	// cost[q] = cheapest way to answer q so far.
	cost := make(map[lattice.DimSet]int64, 1<<uint(n))
	for q := lattice.DimSet(0); q <= full; q++ {
		cost[q] = rootCost
	}
	cost[full] = rootCost

	chosen := make(map[lattice.DimSet]bool)
	var sel Selection
	for pick := 0; pick < budget; pick++ {
		var bestView lattice.DimSet
		var bestBenefit int64 = -1
		for v := lattice.DimSet(0); v < full; v++ {
			if chosen[v] {
				continue
			}
			var benefit int64
			vSize := l.SizeOf(v)
			for q := lattice.DimSet(0); q < full; q++ {
				if q&v == q && cost[q] > vSize {
					benefit += cost[q] - vSize
				}
			}
			if benefit > bestBenefit {
				bestBenefit = benefit
				bestView = v
			}
		}
		if bestBenefit <= 0 {
			break
		}
		chosen[bestView] = true
		sel.Views = append(sel.Views, bestView)
		sel.TotalBenefit += bestBenefit
		vSize := l.SizeOf(bestView)
		for q := lattice.DimSet(0); q < full; q++ {
			if q&bestView == q && cost[q] > vSize {
				cost[q] = vSize
			}
		}
	}
	return sel
}

// Materialize computes the selected group-bys directly from the input.
func Materialize(input *array.Sparse, views []lattice.DimSet, op agg.Op) (map[lattice.DimSet]*array.Dense, error) {
	out := make(map[lattice.DimSet]*array.Dense, len(views))
	for _, v := range views {
		if _, dup := out[v]; dup {
			return nil, fmt.Errorf("views: view %b selected twice", v)
		}
		a, _ := array.ProjectSparse(input, v.Dims(), op, agg.FoldInput)
		out[v] = a
	}
	return out, nil
}

// Router answers group-by queries from a partially materialized cube.
type Router struct {
	input *array.Sparse
	op    agg.Op
	views map[lattice.DimSet]*array.Dense
	n     int
}

// NewRouter builds a router over the input array and materialized views.
func NewRouter(input *array.Sparse, op agg.Op, views map[lattice.DimSet]*array.Dense) (*Router, error) {
	if !op.Valid() {
		return nil, fmt.Errorf("views: invalid operator %v", op)
	}
	n := input.Shape().Rank()
	for v, a := range views {
		want := input.Shape().Keep(v.Dims())
		if !a.Shape().Equal(want) {
			return nil, fmt.Errorf("views: view %b has shape %v, want %v", v, a.Shape(), want)
		}
	}
	return &Router{input: input, op: op, views: views, n: n}, nil
}

// Source describes where a query was answered from.
type Source struct {
	// View is the materialized ancestor used; valid when FromRoot is false.
	View lattice.DimSet
	// FromRoot reports that the query fell back to scanning the input.
	FromRoot bool
	// ScanCost is the number of cells scanned.
	ScanCost int64
}

// Plan returns the cheapest source for a query without executing it.
func (r *Router) Plan(q lattice.DimSet) (Source, error) {
	if q&lattice.Full(r.n) != q {
		return Source{}, fmt.Errorf("views: query %b outside %d dimensions", q, r.n)
	}
	best := Source{FromRoot: true, ScanCost: int64(r.input.NNZ())}
	for v, a := range r.views {
		if q&v == q && int64(a.Size()) < best.ScanCost {
			best = Source{View: v, ScanCost: int64(a.Size())}
		}
	}
	return best, nil
}

// Answer computes the group-by q from its cheapest source.
func (r *Router) Answer(q lattice.DimSet) (*array.Dense, Source, error) {
	src, err := r.Plan(q)
	if err != nil {
		return nil, Source{}, err
	}
	if src.FromRoot {
		a, _ := array.ProjectSparse(r.input, q.Dims(), r.op, agg.FoldInput)
		return a, src, nil
	}
	view := r.views[src.View]
	if src.View == q {
		return view.Clone(), src, nil
	}
	// Keep the positions of q's dimensions within the view's axis list.
	viewDims := src.View.Dims()
	keep := make([]int, 0, q.Count())
	for i, d := range viewDims {
		if q.Has(d) {
			keep = append(keep, i)
		}
	}
	sort.Ints(keep)
	a, _ := array.ProjectDense(view, nd.FullBlock(view.Shape()), keep, r.op)
	return a, src, nil
}

// SelectGreedyUnderSpace is SelectGreedy under a storage budget instead of
// a view count: each round picks the view with the best benefit per stored
// cell among those that still fit, stopping when nothing fits or helps.
// This is the classic space-budgeted variant of the benefit greedy.
func SelectGreedyUnderSpace(l *lattice.Lattice, maxCells int64, rootCost int64) Selection {
	n := l.N()
	full := lattice.Full(n)
	if rootCost <= 0 {
		rootCost = l.SizeOf(full)
	}
	cost := make(map[lattice.DimSet]int64, 1<<uint(n))
	for q := lattice.DimSet(0); q <= full; q++ {
		cost[q] = rootCost
	}
	chosen := make(map[lattice.DimSet]bool)
	var sel Selection
	var used int64
	for {
		var bestView lattice.DimSet
		var bestBenefit int64 = -1
		var bestRate float64 = -1
		for v := lattice.DimSet(0); v < full; v++ {
			if chosen[v] {
				continue
			}
			vSize := l.SizeOf(v)
			if used+vSize > maxCells {
				continue
			}
			var benefit int64
			for q := lattice.DimSet(0); q < full; q++ {
				if q&v == q && cost[q] > vSize {
					benefit += cost[q] - vSize
				}
			}
			rate := float64(benefit) / float64(vSize)
			if benefit > 0 && rate > bestRate {
				bestRate = rate
				bestBenefit = benefit
				bestView = v
			}
		}
		if bestBenefit <= 0 {
			return sel
		}
		chosen[bestView] = true
		sel.Views = append(sel.Views, bestView)
		sel.TotalBenefit += bestBenefit
		vSize := l.SizeOf(bestView)
		used += vSize
		for q := lattice.DimSet(0); q < full; q++ {
			if q&bestView == q && cost[q] > vSize {
				cost[q] = vSize
			}
		}
	}
}
