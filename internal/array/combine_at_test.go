package array

import (
	"math"
	"math/rand"
	"testing"

	"parcube/internal/agg"
	"parcube/internal/nd"
)

// refCombineAt is the per-element CombineAt the row kernel replaced: it
// walks src row-major, keeps the destination offset with an odometer over
// every axis, and folds each element with agg's own Combine.
func refCombineAt(d, src *Dense, lo []int, op agg.Op) {
	rank := d.Rank()
	if rank == 0 {
		d.data[0] = op.Combine(d.data[0], src.data[0])
		return
	}
	dstStrides := d.shape.Strides()
	doff := 0
	for i, l := range lo {
		doff += l * dstStrides[i]
	}
	coords := make([]int, rank)
	for soff := range src.data {
		d.data[doff] = op.Combine(d.data[doff], src.data[soff])
		i := rank - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < src.shape[i] {
				doff += dstStrides[i]
				break
			}
			coords[i] = 0
			doff -= (src.shape[i] - 1) * dstStrides[i]
		}
		if i < 0 {
			break
		}
	}
}

// specialValue draws mostly non-integer values, with -0.0, +0.0, ±Inf
// and NaN mixed in, so any difference between a fold and a copy, or in
// the comparison the max/min updates make, changes some cell's bits.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	default:
		return rng.NormFloat64() * 100
	}
}

func specialDense(rng *rand.Rand, shape nd.Shape) *Dense {
	d := &Dense{shape: shape, data: make([]float64, shape.Size())}
	for i := range d.data {
		d.data[i] = specialValue(rng)
	}
	return d
}

// TestCombineAtMatchesPerElementReference: on ranks 0 to 5, under every
// operator, with origins at the destination's low and high edges and in
// between, extent-1 axes on either side, and destinations pre-filled
// with the identity or with special values, the row kernel leaves every
// destination cell with the reference's bits.
func TestCombineAtMatchesPerElementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for rank := 0; rank <= 5; rank++ {
		for trial := 0; trial < 40; trial++ {
			dshape := make(nd.Shape, rank)
			sshape := make(nd.Shape, rank)
			lo := make([]int, rank)
			for i := range dshape {
				dshape[i] = 1 + rng.Intn(5)
				switch rng.Intn(4) {
				case 0: // extent-1 source axis
					sshape[i] = 1
				case 1: // the whole destination axis
					sshape[i] = dshape[i]
				default:
					sshape[i] = 1 + rng.Intn(dshape[i])
				}
				switch slack := dshape[i] - sshape[i]; rng.Intn(3) {
				case 0: // on the low edge
				case 1: // flush with the high edge
					lo[i] = slack
				default:
					lo[i] = rng.Intn(slack + 1)
				}
			}
			src := specialDense(rng, sshape)
			for _, op := range diffOps {
				want := NewDense(dshape, op)
				if trial%2 == 1 {
					want = specialDense(rng, dshape)
				}
				got := want.Clone()
				refCombineAt(want, src, lo, op)
				got.CombineAt(src, lo, op)
				for j := range want.data {
					if math.Float64bits(got.data[j]) != math.Float64bits(want.data[j]) {
						t.Fatalf("rank %d %v dst %v src %v at %v: cell %d = %v (%#x), reference %v (%#x)",
							rank, op, dshape, sshape, lo, j, got.data[j], math.Float64bits(got.data[j]),
							want.data[j], math.Float64bits(want.data[j]))
					}
				}
			}
		}
	}
}
