package array

import (
	"fmt"
	"math"
	"sync"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// Target pairs a child accumulator with the parent axis it collapses.
// Scanning a parent with several targets updates every child in one pass —
// the "compute all children of a node simultaneously" step that gives the
// aggregation tree its maximal cache and memory reuse.
type Target struct {
	Child    *Dense // shape must equal parent shape with DropAxis removed
	DropAxis int
}

// foldKind is the update one (operator, fold) pair performs. The kernels
// switch on it once per row or per chunk and then run a loop that does
// exactly that update, so no function value is called per update.
type foldKind uint8

const (
	foldAdd foldKind = iota // acc + v: Sum, and Count over partial counts
	foldOne                 // acc + 1: Count over raw input cells
	foldMax                 // v if v > acc
	foldMin                 // v if v < acc
)

// kindOf maps an operator and fold mode to its update: Apply for
// FoldInput, Combine for FoldPartial. The two differ only for Count.
func kindOf(op agg.Op, fold agg.Fold) foldKind {
	switch op {
	case agg.Sum:
		return foldAdd
	case agg.Count:
		if fold == agg.FoldInput {
			return foldOne
		}
		return foldAdd
	case agg.Max:
		return foldMax
	case agg.Min:
		return foldMin
	}
	panic("agg: invalid operator")
}

// foldRow folds src element-wise into dst (equal lengths): dst[j] receives
// src[j].
func foldRow(k foldKind, dst, src []float64) {
	dst = dst[:len(src)]
	switch k {
	case foldAdd:
		for j, v := range src {
			dst[j] += v
		}
	case foldOne:
		for j := range src {
			dst[j]++
		}
	case foldMax:
		for j, v := range src {
			if v > dst[j] {
				dst[j] = v
			}
		}
	case foldMin:
		for j, v := range src {
			if v < dst[j] {
				dst[j] = v
			}
		}
	}
}

// reduceRow folds every element of src into acc, in order.
func reduceRow(k foldKind, acc float64, src []float64) float64 {
	switch k {
	case foldAdd:
		for _, v := range src {
			acc += v
		}
	case foldOne:
		for range src {
			acc++
		}
	case foldMax:
		for _, v := range src {
			if v > acc {
				acc = v
			}
		}
	case foldMin:
		for _, v := range src {
			if v < acc {
				acc = v
			}
		}
	}
	return acc
}

// tabIndex locates an entry in a chunk's two offset tables: its child
// offset is hi[q] + lo[r].
type tabIndex struct{ q, r uint32 }

// foldTables folds entry i's value into dst[hi[idx[i].q] + lo[idx[i].r]],
// in entry order.
func foldTables(k foldKind, dst []float64, hi, lo []int, idx []tabIndex, entries []Entry) {
	idx = idx[:len(entries)]
	switch k {
	case foldAdd:
		for i, e := range entries {
			dst[hi[idx[i].q]+lo[idx[i].r]] += e.Val
		}
	case foldOne:
		for _, x := range idx {
			dst[hi[x.q]+lo[x.r]]++
		}
	case foldMax:
		for i, e := range entries {
			if o := hi[idx[i].q] + lo[idx[i].r]; e.Val > dst[o] {
				dst[o] = e.Val
			}
		}
	case foldMin:
		for i, e := range entries {
			if o := hi[idx[i].q] + lo[idx[i].r]; e.Val < dst[o] {
				dst[o] = e.Val
			}
		}
	}
}

// scanScratch holds the per-call working set of every kernel in this
// file. The stride tables are flattened (target-major, rank entries each)
// so one pooled object serves any fan-out without nested allocations.
type scanScratch struct {
	cstride    []int // nt*rank: child offset delta per parent-axis step
	resetDelta []int // nt*rank: child offset delta when an axis wraps
	coords     []int // rank: odometer state
	coff       []int // nt: current child offsets

	// A sparse fold's state: the update it does, the parent's rank, each
	// target's accumulator data (addressed through cstride), and the
	// updates done so far.
	kind    foldKind
	rank    int
	outs    [][]float64
	updates int64
	cshape  []int      // rank: extent of the chunk being folded
	hiTab   []int      // child offset of each leading-axes index
	loTab   []int      // child offset of each trailing-axes index
	idx     []tabIndex // table indices of each entry of the chunk
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// intScratch resizes buf to n entries without zeroing; callers overwrite
// every entry.
func intScratch(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// intScratchZero resizes buf to n zeroed entries.
func intScratchZero(buf []int, n int) []int {
	buf = intScratch(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// childShapeMatches reports whether child equals parent with axis drop
// removed, without materializing the dropped shape.
func childShapeMatches(child, parent nd.Shape, drop int) bool {
	if len(child) != len(parent)-1 {
		return false
	}
	j := 0
	for i := range parent {
		if i == drop {
			continue
		}
		if child[j] != parent[i] {
			return false
		}
		j++
	}
	return true
}

// checkTargets panics unless every target drops an axis of parent and has
// parent's shape minus that axis.
func checkTargets(parent nd.Shape, targets []Target) {
	for _, t := range targets {
		if t.DropAxis < 0 || t.DropAxis >= parent.Rank() {
			panic(fmt.Sprintf("array: drop axis %d out of range for %v", t.DropAxis, parent))
		}
		if !childShapeMatches(t.Child.Shape(), parent, t.DropAxis) {
			panic(fmt.Sprintf("array: child shape %v does not match parent %v minus axis %d",
				t.Child.Shape(), parent, t.DropAxis))
		}
	}
}

// fillChildStrides writes target t's flattened stride row: the child's
// row-major strides spread onto the parent's axes, zero along the
// collapsed axis. Derived directly from the parent shape so no child
// stride slice is ever materialized.
func fillChildStrides(cs []int, parentShape nd.Shape, drop int) {
	acc := 1
	for i := len(parentShape) - 1; i >= 0; i-- {
		if i == drop {
			cs[i] = 0
			continue
		}
		cs[i] = acc
		acc *= parentShape[i]
	}
}

// Scan folds every element of parent into each target child with op. It
// walks the parent one row at a time along its last axis: a target that
// collapses the last axis folds the row into one accumulator, in order;
// every other target folds it element-wise into a contiguous row of its
// child. Child offsets advance once per row (odometer-style over the
// leading axes), and each child cell receives its contributions in the
// parent's row-major order, exactly as an element-at-a-time scan would.
//
// It returns the number of accumulator updates performed, the unit the cost
// model and the "98% of computation is at the first level" analysis use.
//
//cubelint:hotpath dense scan kernel, one pass per tree node
func Scan(parent *Dense, targets []Target, op agg.Op, fold agg.Fold) int64 {
	if len(targets) == 0 {
		return 0
	}
	kind := kindOf(op, fold)
	checkTargets(parent.shape, targets)
	// checkTargets leaves rank >= 1: a scalar has no axis to drop.
	rank := parent.Rank()
	nt := len(targets)
	last := rank - 1
	sc := scanPool.Get().(*scanScratch)
	// cstride[c*rank+i]: how much target c's offset moves when parent
	// coordinate i increments (zero along the collapsed axis).
	sc.cstride = intScratch(sc.cstride, nt*rank)
	// resetDelta[c*rank+i]: offset change when coordinate i wraps from max
	// back to zero: -(extent-1)*stride.
	sc.resetDelta = intScratch(sc.resetDelta, nt*rank)
	sc.coords = intScratchZero(sc.coords, rank)
	sc.coff = intScratchZero(sc.coff, nt)
	cstride, resetDelta, coords, coff := sc.cstride, sc.resetDelta, sc.coords, sc.coff
	for c, t := range targets {
		cs := cstride[c*rank : (c+1)*rank]
		fillChildStrides(cs, parent.shape, t.DropAxis)
		rd := resetDelta[c*rank : (c+1)*rank]
		for i := 0; i < rank; i++ {
			rd[i] = -(parent.shape[i] - 1) * cs[i]
		}
	}

	pdata := parent.data
	rowLen := parent.shape[last]
	for start := 0; start < len(pdata); start += rowLen {
		row := pdata[start : start+rowLen]
		for c := 0; c < nt; c++ {
			cd := targets[c].Child.data
			o := coff[c]
			if targets[c].DropAxis == last {
				cd[o] = reduceRow(kind, cd[o], row)
			} else {
				foldRow(kind, cd[o:o+rowLen], row)
			}
		}
		// Advance the odometer over the leading axes.
		for i := last - 1; i >= 0; i-- {
			coords[i]++
			if coords[i] < parent.shape[i] {
				for c := 0; c < nt; c++ {
					coff[c] += cstride[c*rank+i]
				}
				break
			}
			coords[i] = 0
			for c := 0; c < nt; c++ {
				coff[c] += resetDelta[c*rank+i]
			}
		}
	}
	scanPool.Put(sc)
	return int64(len(pdata)) * int64(nt)
}

// Source is anything that can stream the stored chunks of a sparse array
// of a known shape: an in-memory Sparse, or a disk scanner reading one
// chunk at a time. It is what the sequential engine's first level
// consumes, so the initial array never needs to fit in memory. Every
// entry's Off must lie inside its block, and fn must not retain entries.
type Source interface {
	Shape() nd.Shape
	IterChunks(fn func(block nd.Block, entries []Entry) error) error
}

// newChunkFold takes scratch from the pool and sizes it for a fold into
// nt accumulators over a rank-dimensional parent. Each accumulator is a
// dense array addressed by per-parent-axis strides: a child of the
// aggregation tree has stride zero on its collapsed axis, a projection on
// every axis it drops. The caller fills outs and cstride, passes
// foldChunk every chunk, then calls release.
func newChunkFold(kind foldKind, rank, nt int) *scanScratch {
	sc := scanPool.Get().(*scanScratch)
	if cap(sc.outs) < nt {
		sc.outs = make([][]float64, nt)
	}
	sc.outs = sc.outs[:nt]
	sc.cstride = intScratch(sc.cstride, nt*rank)
	sc.cshape = intScratch(sc.cshape, rank)
	sc.kind, sc.rank, sc.updates = kind, rank, 0
	return sc
}

// release returns the scratch to the pool, without keeping the
// accumulators reachable from it, and reports the updates done.
func (sc *scanScratch) release() int64 {
	clear(sc.outs)
	updates := sc.updates
	scanPool.Put(sc)
	return updates
}

// fillOffsetTable writes, for every row-major index over the axes with
// extents ext, base plus the sum of coordinate times stride. It expands
// from the last axis outwards, copying the table built so far once per
// step of each new axis, so it does one add per entry and no division.
func fillOffsetTable(tab, ext, st []int, base int) {
	tab[0] = base
	n := 1
	for i := len(ext) - 1; i >= 0; i-- {
		for j := 1; j < ext[i]; j++ {
			d := j * st[i]
			blk := tab[j*n : (j+1)*n]
			for r, v := range tab[:n] {
				blk[r] = v + d
			}
		}
		n *= ext[i]
	}
}

// foldChunk folds one chunk's entries into every accumulator, one
// accumulator at a time, each in the entries' stored order, so an
// accumulator cell receives its contributions in the same order as a
// cell-at-a-time scan of the chunk.
//
// Offsets come from two tables per accumulator over a split of the
// chunk's axes: hi over the leading axes with the chunk origin folded in,
// lo over the trailing ones, each about sqrt(chunk volume) long. An
// entry's offset is hi[off/loVol] + lo[off%loVol], and the one division
// per entry is done once per chunk, not once per axis and accumulator. A
// chunk so sparse that its tables would outweigh rank divisions per entry
// gives each entry its own row of hi instead (lo is {0}), which keeps the
// work bounded by the entry count however large a chunk's block.
//
//cubelint:hotpath sparse first-level kernel, one call per stored chunk
func (sc *scanScratch) foldChunk(block nd.Block, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	rank, cshape := sc.rank, sc.cshape
	vol := 1
	for i := 0; i < rank; i++ {
		cshape[i] = block.Hi[i] - block.Lo[i]
		vol *= cshape[i]
	}
	// Split before axis k where the two table lengths sum least.
	k, hiVol, best := 0, 1, 1+vol
	for i, p := 0, 1; i < rank; i++ {
		p *= cshape[i]
		if p+vol/p < best {
			k, hiVol, best = i+1, p, p+vol/p
		}
	}
	loVol := vol / hiVol
	useTables := best <= rank*len(entries) && uint64(loVol) <= math.MaxUint32
	if !useTables {
		hiVol, loVol = len(entries), 1
	}
	sc.hiTab = intScratch(sc.hiTab, hiVol)
	sc.loTab = intScratch(sc.loTab, loVol)
	if cap(sc.idx) < len(entries) {
		sc.idx = make([]tabIndex, len(entries))
	}
	idx := sc.idx[:len(entries)]
	if useTables {
		d := uint32(loVol)
		for i, e := range entries {
			idx[i] = tabIndex{e.Off / d, e.Off % d}
		}
	} else {
		for i := range idx {
			idx[i] = tabIndex{uint32(i), 0}
		}
		sc.loTab[0] = 0
	}
	hi, lo := sc.hiTab, sc.loTab
	for c, out := range sc.outs {
		st := sc.cstride[c*rank : (c+1)*rank]
		base := 0
		for i := 0; i < rank; i++ {
			base += block.Lo[i] * st[i]
		}
		if useTables {
			fillOffsetTable(hi, cshape[:k], st[:k], base)
			fillOffsetTable(lo, cshape[k:], st[k:], 0)
		} else {
			for i, e := range entries {
				o, rem := base, int(e.Off)
				for a := rank - 1; a >= 0; a-- {
					o += rem % cshape[a] * st[a]
					rem /= cshape[a]
				}
				hi[i] = o
			}
		}
		foldTables(sc.kind, out, hi, lo, idx, entries)
	}
	sc.updates += int64(len(entries)) * int64(len(sc.outs))
	return nil
}

// scanTargets prepares a chunk fold of shape-shaped input into targets.
func scanTargets(shape nd.Shape, targets []Target, op agg.Op, fold agg.Fold) *scanScratch {
	kind := kindOf(op, fold)
	checkTargets(shape, targets)
	rank := shape.Rank()
	sc := newChunkFold(kind, rank, len(targets))
	for c, t := range targets {
		sc.outs[c] = t.Child.data
		fillChildStrides(sc.cstride[c*rank:(c+1)*rank], shape, t.DropAxis)
	}
	return sc
}

// ScanSource folds every stored entry of src into each target child with
// op, in one pass, chunk by chunk. Children must have the source's shape
// minus their collapsed axis. Returns the number of accumulator updates
// and the first error src reported; the children are then incomplete.
func ScanSource(src Source, targets []Target, op agg.Op, fold agg.Fold) (int64, error) {
	sc := scanTargets(src.Shape(), targets, op, fold)
	err := src.IterChunks(sc.foldChunk)
	return sc.release(), err
}

// ScanSparse is ScanSource over an in-memory sparse array, which cannot
// fail.
//
//cubelint:hotpath sparse scan kernel, one pass over every input cell
func ScanSparse(parent *Sparse, targets []Target, op agg.Op, fold agg.Fold) int64 {
	sc := scanTargets(parent.shape, targets, op, fold)
	_ = parent.IterChunks(sc.foldChunk) // foldChunk never fails
	return sc.release()
}
