package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"parcube/internal/array"
	"parcube/internal/nd"
)

// sparseHash is a SHA-256 over every chunk's bounds and every stored
// entry's offset and value bits, in storage order.
func sparseHash(t *testing.T, s *array.Sparse) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(s.NNZ()))
	err := s.IterChunks(func(b nd.Block, es []array.Entry) error {
		for i := range b.Lo {
			put(uint64(b.Lo[i]))
			put(uint64(b.Hi[i]))
		}
		put(uint64(len(es)))
		for _, e := range es {
			put(uint64(e.Off))
			put(math.Float64bits(e.Val))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateHashesPinned pins Generate's output bit for bit: the
// hashes were recorded before the builder and the duplicate filter were
// rewritten, so the same spec must keep producing the same array.
func TestGenerateHashesPinned(t *testing.T) {
	cases := []struct {
		dist Distribution
		seed int64
		want string
	}{
		{Uniform, 1, "6347ab4032d41061068122162f3ceb174a296abd0d5dfd46f248fe9ea768461c"},
		{Uniform, 2, "7eb6bfb39f4a36fba5136f5dae592b886c20cd0a2d11f33f1fdaecf33f4fbcea"},
		{Clustered, 1, "e53ee2e1e3c129d716cf33197de5c3b3326a5639182598173c0119609cc4b290"},
		{Clustered, 2, "b68761bd8ec41e86841bb73f6f358b9c46edec684e9f2f016cbcc42bf2ea6dfb"},
	}
	for _, tc := range cases {
		s, err := Generate(Spec{Shape: nd.MustShape(24, 20, 16, 12), SparsityPercent: 10,
			Seed: tc.seed, Distribution: tc.dist})
		if err != nil {
			t.Fatal(err)
		}
		if got := sparseHash(t, s); got != tc.want {
			t.Errorf("%v seed %d: hash %s, want %s", tc.dist, tc.seed, got, tc.want)
		}
	}
}
