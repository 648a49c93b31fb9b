package parallel

import (
	"fmt"
	"sync"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/nd"
)

// accStack is one processor's accumulator memory. The right-to-left
// depth-first traversal frees a processor's accumulators in exactly the
// reverse order it allocates them, so they live on one stack of cells
// whose size is the Theorem 4 bound: the bound is the allocation, and the
// stack's high-water mark is the processor's peak.
type accStack struct {
	buf  []float64      // len(buf) is the bound; cells past top are free
	top  int            // cells in use
	peak int            // high-water mark of top
	live []*array.Dense // pushed accumulators, oldest first
}

// stackPool keeps accumulator stacks across builds, so a build's local
// phase allocates no accumulator cells once the pool is warm.
var stackPool = sync.Pool{New: func() any { return new(accStack) }}

// getStacks returns n empty stacks of bound cells each.
func getStacks(n int, bound int64) []*accStack {
	stacks := make([]*accStack, n)
	for r := range stacks {
		s := stackPool.Get().(*accStack)
		if int64(cap(s.buf)) < bound {
			s.buf = make([]float64, bound)
		}
		s.buf = s.buf[:bound]
		stacks[r] = s
	}
	return stacks
}

// putStacks resets stacks and returns them to the pool. Only call it once
// no processor can touch them: after cluster.Run has joined every rank.
func putStacks(stacks []*accStack) {
	for _, s := range stacks {
		s.top, s.peak = 0, 0
		clear(s.live)
		s.live = s.live[:0]
		stackPool.Put(s)
	}
}

// push carves an accumulator of the given shape off the top of the
// stack, filled with op's identity. A push past the bound is the
// Theorem 4 violation, reported as it happens.
func (s *accStack) push(shape nd.Shape, op agg.Op) (*array.Dense, error) {
	n := shape.Size()
	if s.top+n > len(s.buf) {
		memoryBoundViolations.Inc()
		return nil, fmt.Errorf("parallel: peak per-processor memory %d elements exceeds Theorem 4 bound %d",
			s.top+n, len(s.buf))
	}
	cells := s.buf[s.top : s.top+n : s.top+n]
	if op.Identity() != 0 {
		op.Fill(cells)
	} else {
		clear(cells)
	}
	a := array.Wrap(shape, cells)
	s.top += n
	s.peak = max(s.peak, s.top)
	s.live = append(s.live, a)
	return a, nil
}

// pop releases a, which must be the most recently pushed accumulator
// still live.
func (s *accStack) pop(a *array.Dense) error {
	if len(s.live) == 0 || s.live[len(s.live)-1] != a {
		return fmt.Errorf("parallel: accumulator of %d cells released out of stack order", a.Size())
	}
	s.live[len(s.live)-1] = nil
	s.live = s.live[:len(s.live)-1]
	s.top -= a.Size()
	return nil
}
