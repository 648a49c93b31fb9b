package array

import (
	"cmp"
	"slices"
)

// Cell is one element of a dense array: its coordinates and its value.
type Cell struct {
	Coords []int
	Value  float64
}

// Top returns the k largest elements, largest first, ties broken by
// ascending row-major offset (so by ascending coordinates); NaN ranks
// below every number. A k past Size returns every element, and k ≤ 0
// none. It keeps a k-element heap, so it costs O(Size · log k) and
// allocates only for the answer.
func (d *Dense) Top(k int) []Cell {
	k = min(k, len(d.data))
	if k <= 0 {
		return []Cell{}
	}
	// order ranks offset a against offset b: negative when a comes first.
	order := func(a, b int) int {
		if c := cmp.Compare(d.data[b], d.data[a]); c != 0 {
			return c
		}
		return a - b
	}
	before := func(a, b int) bool { return order(a, b) < 0 }
	// heap is a min-heap under before: its root is the kept element that
	// ranks last, the one a better element replaces.
	heap := make([]int, 0, k)
	for off := range d.data {
		if len(heap) < k {
			heap = append(heap, off)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !before(heap[p], heap[i]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		} else if before(off, heap[0]) {
			heap[0] = off
			for i := 0; ; {
				worst, l, r := i, 2*i+1, 2*i+2
				if l < k && before(heap[worst], heap[l]) {
					worst = l
				}
				if r < k && before(heap[worst], heap[r]) {
					worst = r
				}
				if worst == i {
					break
				}
				heap[i], heap[worst] = heap[worst], heap[i]
				i = worst
			}
		}
	}
	slices.SortFunc(heap, order)
	out := make([]Cell, len(heap))
	rank := d.shape.Rank()
	coords := make([]int, len(heap)*rank)
	for i, off := range heap {
		out[i].Value = d.data[off]
		if rank > 0 {
			out[i].Coords = d.shape.Coords(off, coords[i*rank:(i+1)*rank:(i+1)*rank])
		}
	}
	return out
}
