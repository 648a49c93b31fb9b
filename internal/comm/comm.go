// Package comm is the message-passing substrate under the parallel cube
// algorithm — the role MPI plays on the paper's cluster, rebuilt from
// scratch on the standard library. It provides point-to-point typed
// messages between ranked endpoints over two interchangeable fabrics
// (in-process channels and TCP with binary framing), per-fabric traffic
// accounting, and the reduction collectives the algorithm needs
// (binomial tree and flat gather, both moving exactly (g-1) x slab
// elements per group, the volume Lemma 1 counts).
package comm

import (
	"errors"
	"fmt"
)

// Tag distinguishes concurrent conversations between the same pair of
// ranks. The parallel engine uses the finalized group-by's mask, so every
// (src, dst, tag) triple carries at most one message per build.
type Tag uint64

// Message is one point-to-point transfer. Time carries the sender's virtual
// clock for the cluster simulator; fabrics transport it opaquely.
type Message struct {
	Src  int
	Dst  int
	Tag  Tag
	Time float64
	Data []float64
}

// headerBytes is the accounted wire overhead per message: src, dst (4 bytes
// each), tag (8), time (8), length (4).
const headerBytes = 28

// WireBytes returns the accounted transfer size of a message.
func WireBytes(elements int) int64 { return headerBytes + 8*int64(elements) }

// Endpoint is one rank's handle onto a fabric.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks on the fabric.
	Size() int
	// Send delivers data to rank dst under tag. It must not block
	// indefinitely when the receiver has not posted a Recv yet. Send does
	// not retain data after it returns: it copies the payload or writes
	// it out first, so the caller may overwrite or reuse the buffer at
	// once (the parallel engine sends straight from accumulators that the
	// next push recycles).
	Send(dst int, tag Tag, time float64, data []float64) error
	// Recv blocks until the message from src under tag arrives, or the
	// fabric closes.
	Recv(src int, tag Tag) (Message, error)
}

// Fabric wires a fixed set of ranks together.
type Fabric interface {
	// Endpoint returns the endpoint for a rank. Each rank's endpoint is
	// owned by exactly one goroutine.
	Endpoint(rank int) (Endpoint, error)
	// Stats returns a snapshot of accumulated traffic counters.
	Stats() Stats
	// Close tears the fabric down, unblocking pending Recvs with an error.
	Close() error
}

// ErrClosed is returned by operations on a closed fabric.
var ErrClosed = errors.New("comm: fabric closed")

// checkRank validates a rank against the fabric size.
func checkRank(rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("comm: rank %d out of range [0,%d)", rank, size)
	}
	return nil
}

// mailKey identifies a mailbox slot.
type mailKey struct {
	src, dst int
	tag      Tag
}
