package array

import (
	"fmt"

	"parcube/internal/agg"
)

// CombineAt folds src into d with op, placing src's origin at offset lo
// within d: d[lo+c] = Combine(d[lo+c], src[c]) for every coordinate c of
// src. This assembles partial results — tile sub-cubes into global
// group-bys, or per-processor slabs into a collected array.
//
// It folds one innermost row of src at a time with the scan kernels'
// monomorphic row update, advancing an odometer over the outer axes once
// per row. The update is a fold, never a copy, even into cells holding
// the identity: 0 + (-0.0) is +0.0, which a copy would not reproduce.
//
//cubelint:hotpath slab-assembly kernel, one call per placed slab
func (d *Dense) CombineAt(src *Dense, lo []int, op agg.Op) {
	rank := d.Rank()
	if src.Rank() != rank || len(lo) != rank {
		panic(fmt.Sprintf("array: CombineAt rank mismatch: dst %v, src %v, lo %v", d.shape, src.shape, lo))
	}
	for i := 0; i < rank; i++ {
		if lo[i] < 0 || lo[i]+src.shape[i] > d.shape[i] {
			panic(fmt.Sprintf("array: CombineAt region out of range: dst %v, src %v at %v", d.shape, src.shape, lo))
		}
	}
	kind := kindOf(op, agg.FoldPartial)
	if rank == 0 {
		foldRow(kind, d.data[:1], src.data[:1])
		return
	}
	if len(src.data) == 0 {
		return
	}

	sc := scanPool.Get().(*scanScratch)
	// cstride is d's stride per axis; coords is the odometer over src's
	// leading axes.
	sc.cstride = intScratch(sc.cstride, rank)
	sc.coords = intScratchZero(sc.coords, rank)
	dstride, coords := sc.cstride, sc.coords
	doff, acc := 0, 1
	for i := rank - 1; i >= 0; i-- {
		dstride[i] = acc
		doff += lo[i] * acc
		acc *= d.shape[i]
	}

	last := rank - 1
	rowLen := src.shape[last]
	for soff := 0; ; soff += rowLen {
		foldRow(kind, d.data[doff:doff+rowLen], src.data[soff:soff+rowLen])
		i := last - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < src.shape[i] {
				doff += dstride[i]
				break
			}
			coords[i] = 0
			doff -= (src.shape[i] - 1) * dstride[i]
		}
		if i < 0 {
			break
		}
	}
	scanPool.Put(sc)
}
