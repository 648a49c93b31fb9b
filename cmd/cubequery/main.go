// Command cubequery builds the full data cube from a CSV fact table and
// answers group-by queries.
//
// Usage:
//
//	cubegen -shape 16x16x16 | cubequery -shape 16x16x16 -groupby A,B
//	cubequery -shape 64x64 -in facts.csv -groupby A -top 5
//	cubequery -shape 16x16x16 -in facts.csv -parallel 8 -groupby B
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/cubeio"
	"parcube/internal/lattice"
	"parcube/internal/nd"
	"parcube/internal/parallel"
	"parcube/internal/seq"
)

func main() {
	shapeFlag := flag.String("shape", "", "dimension sizes of the fact table, e.g. 16x16x16 (required)")
	in := flag.String("in", "-", "input CSV (default stdin)")
	groupBy := flag.String("groupby", "", "comma-separated dimension names to retain (empty = grand total)")
	opName := flag.String("agg", "sum", "aggregation: sum, count, max, min")
	informat := flag.String("informat", "csv", "input format: csv or bin (streams; sequential builds never hold the input in memory)")
	procs := flag.Int("parallel", 1, "simulated processors (power of two); 1 = sequential")
	top := flag.Int("top", 0, "print only the top-k cells by value (0 = full CSV)")
	flag.Parse()

	if err := run(*shapeFlag, *in, *groupBy, *opName, *informat, *procs, *top); err != nil {
		fmt.Fprintln(os.Stderr, "cubequery:", err)
		os.Exit(1)
	}
}

func run(shapeStr, in, groupBy, opName, informat string, procs, top int) error {
	if shapeStr == "" {
		return fmt.Errorf("-shape is required")
	}
	shape, err := nd.ParseShape(shapeStr)
	if err != nil {
		return err
	}
	op, err := agg.Parse(opName)
	if err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var input *array.Sparse
	var names []string
	var scanner *cubeio.SparseScanner
	switch informat {
	case "csv":
		var err error
		input, names, err = cubeio.ReadCSV(r, shape)
		if err != nil {
			return err
		}
	case "bin":
		var err error
		scanner, err = cubeio.NewSparseScanner(r)
		if err != nil {
			return err
		}
		if !scanner.Shape().Equal(shape) {
			return fmt.Errorf("file shape %v does not match -shape %v", scanner.Shape(), shape)
		}
		names = lattice.DefaultNames(shape.Rank())
	default:
		return fmt.Errorf("unknown input format %q", informat)
	}

	var store *seq.Store
	if procs > 1 {
		if scanner != nil {
			return fmt.Errorf("-parallel needs the in-memory csv path; binary input streams sequentially")
		}
		logP := 0
		for 1<<uint(logP) < procs {
			logP++
		}
		if 1<<uint(logP) != procs {
			return fmt.Errorf("processor count %d is not a power of two", procs)
		}
		res, err := parallel.Build(input, parallel.Options{
			Op:       op,
			LogProcs: logP,
			Network:  cluster.Cluster2003(),
			Compute:  cluster.UltraII(),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "parallel build on %d processors: partition k=%v, comm %d elements, modeled time %.3fs\n",
			procs, res.K, res.Stats.MeasuredVolumeElements, res.Stats.MakespanSec)
		store = res.Cube
	} else if scanner != nil {
		res, err := seq.BuildFromSource(scanner, seq.Options{Op: op})
		if err != nil {
			return err
		}
		store = res.Cube
	} else {
		res, err := seq.Build(input, seq.Options{Op: op})
		if err != nil {
			return err
		}
		store = res.Cube
	}

	mask, err := maskOf(groupBy, names)
	if err != nil {
		return err
	}
	a, ok := store.Get(mask)
	if !ok {
		return fmt.Errorf("group-by %q not materialized", groupBy)
	}
	if top > 0 {
		return printTop(os.Stdout, a, mask, names, top)
	}
	return cubeio.WriteGroupByCSV(os.Stdout, names, mask, a)
}

// maskOf resolves a comma-separated name list against the header names.
func maskOf(groupBy string, names []string) (lattice.DimSet, error) {
	var mask lattice.DimSet
	if strings.TrimSpace(groupBy) == "" {
		return 0, nil
	}
	for _, name := range strings.Split(groupBy, ",") {
		name = strings.TrimSpace(name)
		found := false
		for i, n := range names {
			if n == name {
				mask = mask.With(i)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("unknown dimension %q (have %v)", name, names)
		}
	}
	return mask, nil
}

// printTop prints the k largest cells of a group-by, largest first, ties
// by ascending coordinates.
func printTop(w io.Writer, a *array.Dense, mask lattice.DimSet, names []string, k int) error {
	dims := mask.Dims()
	for _, c := range a.Top(k) {
		for j, d := range dims {
			fmt.Fprintf(w, "%s=%d ", names[d], c.Coords[j])
		}
		if _, err := fmt.Fprintf(w, "value=%g\n", c.Value); err != nil {
			return err
		}
	}
	return nil
}
