// Command cubegen generates a synthetic sparse dataset as a CSV fact table
// on stdout, at the paper's sparsity levels and shapes or any custom shape.
//
// Usage:
//
//	cubegen -shape 64x64x64x64 -sparsity 25 -seed 1 > facts.csv
//	cubegen -shape 32x16 -sparsity 10 -dist clustered
//	cubegen -shape 64x64x64 -format bin > input.spar   (chunked binary, streamable)
package main

import (
	"flag"
	"fmt"
	"os"

	"parcube/internal/cubeio"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/workload"
)

func main() {
	shapeFlag := flag.String("shape", "16x16x16", "dimension sizes, e.g. 64x64x64x64")
	sparsity := flag.Float64("sparsity", 10, "percent of cells that are non-zero")
	seed := flag.Int64("seed", 1, "generation seed")
	dist := flag.String("dist", "uniform", "distribution: uniform or clustered")
	format := flag.String("format", "csv", "output format: csv or bin (chunked binary)")
	flag.Parse()

	if err := run(*shapeFlag, *sparsity, *seed, *dist, *format); err != nil {
		fmt.Fprintln(os.Stderr, "cubegen:", err)
		os.Exit(1)
	}
}

func run(shapeStr string, sparsity float64, seed int64, dist, format string) error {
	shape, err := nd.ParseShape(shapeStr)
	if err != nil {
		return err
	}
	var d workload.Distribution
	switch dist {
	case "uniform":
		d = workload.Uniform
	case "clustered":
		d = workload.Clustered
	default:
		return fmt.Errorf("unknown distribution %q", dist)
	}
	sparse, err := workload.Generate(workload.Spec{
		Shape:           shape,
		SparsityPercent: sparsity,
		Seed:            seed,
		Distribution:    d,
	})
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		return cubeio.WriteCSV(os.Stdout, lattice.DefaultNames(shape.Rank()), sparse)
	case "bin":
		return cubeio.WriteSparseBinary(os.Stdout, sparse)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
