package parcube_test

import (
	"math/rand"
	"testing"

	"parcube"
)

// servingCube is the serving benchmark's cube: a 32x32x16x16 schema with
// 50k facts of integer measures.
func servingCube(b *testing.B) *parcube.Cube {
	b.Helper()
	schema, err := parcube.NewSchema(
		parcube.Dim{Name: "a", Size: 32}, parcube.Dim{Name: "b", Size: 32},
		parcube.Dim{Name: "c", Size: 16}, parcube.Dim{Name: "d", Size: 16},
	)
	if err != nil {
		b.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		if err := ds.Add(float64(rng.Intn(9)+1), rng.Intn(32), rng.Intn(32), rng.Intn(16), rng.Intn(16)); err != nil {
			b.Fatal(err)
		}
	}
	cube, _, err := parcube.Build(ds)
	if err != nil {
		b.Fatal(err)
	}
	return cube
}

// BenchmarkCubeQuery evaluates one statement of each result-size class
// of the serving benchmark's templates on one cube: a slice and a dice
// folded onto 16 cells, a dice folded onto 256, and a dice folded onto
// 1024. Its allocations per statement must not grow with the working
// group-by it reads (scripts/alloc_budget.json).
func BenchmarkCubeQuery(b *testing.B) {
	cube := servingCube(b)
	for _, bc := range []struct{ name, stmt string }{
		{"16c", "GROUP BY c WHERE a = 7 AND b BETWEEN 4 AND 19"},
		{"256c", "GROUP BY c, d WHERE a BETWEEN 8 AND 23"},
		{"1024c", "GROUP BY a, b WHERE c BETWEEN 3 AND 12"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cube.Query(bc.stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
