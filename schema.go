// Package parcube is a Go library for sequential and parallel data cube
// construction over multidimensional sparse arrays, reproducing the
// algorithms of "Communication and Memory Optimal Parallel Data Cube
// Construction" (Jin, Yang, Vaidyanathan, Agrawal; ICPP 2003).
//
// The library builds all 2^n group-by aggregates of an n-dimensional
// dataset using the paper's aggregation tree, which reads the input once,
// computes all children of a node in a single scan, and provably minimizes
// the memory held for intermediate results (Theorems 1 and 2). The parallel
// builder runs the same construction over a simulated shared-nothing
// machine with a from-scratch message-passing layer, block-partitioning the
// input with the communication-optimal greedy partitioner (Theorem 8) and
// finalizing group-bys with reductions onto lead processors; the
// communication volume it measures matches the paper's closed form
// (Theorem 3) exactly.
//
// Quick start:
//
//	schema, _ := parcube.NewSchema(
//		parcube.Dim{Name: "item", Size: 64},
//		parcube.Dim{Name: "branch", Size: 16},
//		parcube.Dim{Name: "time", Size: 32},
//	)
//	ds := parcube.NewDataset(schema)
//	ds.Add(12.5, 3, 1, 30) // item 3, branch 1, time 30 sold 12.5 units
//	cube, _ := parcube.Build(ds)
//	byItem, _ := cube.GroupBy("item")
//	fmt.Println(byItem.At(3))
package parcube

import (
	"fmt"

	"parcube/internal/array"
	"parcube/internal/nd"
)

// Dim declares one dimension of a dataset: a name and the number of
// distinct coordinate values.
type Dim struct {
	Name string
	Size int
}

// Schema is an ordered list of named dimensions.
type Schema struct {
	names []string
	shape nd.Shape
	index map[string]int
}

// NewSchema validates and builds a schema. Dimension names must be unique
// and non-empty; sizes must be positive.
func NewSchema(dims ...Dim) (*Schema, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("parcube: schema needs at least one dimension")
	}
	s := &Schema{index: make(map[string]int, len(dims))}
	sizes := make([]int, len(dims))
	for i, d := range dims {
		if d.Name == "" {
			return nil, fmt.Errorf("parcube: dimension %d has no name", i)
		}
		if _, dup := s.index[d.Name]; dup {
			return nil, fmt.Errorf("parcube: duplicate dimension %q", d.Name)
		}
		s.index[d.Name] = i
		s.names = append(s.names, d.Name)
		sizes[i] = d.Size
	}
	shape, err := nd.NewShape(sizes...)
	if err != nil {
		return nil, fmt.Errorf("parcube: %w", err)
	}
	s.shape = shape
	return s, nil
}

// Dims returns the number of dimensions.
func (s *Schema) Dims() int { return len(s.names) }

// Names returns the dimension names in schema order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Sizes returns the dimension sizes in schema order.
func (s *Schema) Sizes() []int { return append([]int(nil), s.shape...) }

// Index returns the position of a named dimension.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Dataset accumulates facts (sparse cells) for cube construction. Facts
// with identical coordinates are summed, matching fact-table semantics.
// A Dataset may keep receiving facts until the first Build; afterwards it
// is frozen.
type Dataset struct {
	schema  *Schema
	builder *array.SparseBuilder
	sparse  *array.Sparse
	facts   int64
}

// NewDataset creates an empty dataset over the schema.
func NewDataset(schema *Schema) *Dataset {
	b, err := array.NewSparseBuilder(schema.shape, nil)
	if err != nil {
		// The schema already validated the shape.
		panic(err)
	}
	return &Dataset{schema: schema, builder: b}
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Add records one fact: a measure value at integer coordinates in schema
// order.
func (d *Dataset) Add(value float64, coords ...int) error {
	if d.builder == nil {
		return fmt.Errorf("parcube: dataset is frozen after Build")
	}
	if len(coords) != d.schema.Dims() {
		return fmt.Errorf("parcube: %d coordinates for %d dimensions", len(coords), d.schema.Dims())
	}
	if err := d.builder.Add(coords, value); err != nil {
		return fmt.Errorf("parcube: %w", err)
	}
	d.facts++
	return nil
}

// AddRecord records one fact with coordinates keyed by dimension name.
func (d *Dataset) AddRecord(value float64, coords map[string]int) error {
	ordered := make([]int, d.schema.Dims())
	if len(coords) != d.schema.Dims() {
		return fmt.Errorf("parcube: record has %d coordinates, schema has %d", len(coords), d.schema.Dims())
	}
	for name, c := range coords {
		i, ok := d.schema.Index(name)
		if !ok {
			return fmt.Errorf("parcube: unknown dimension %q", name)
		}
		ordered[i] = c
	}
	return d.Add(value, ordered...)
}

// Facts returns the number of Add calls so far. ReadDatasetCSV sums the
// rows that share coordinates and adds each cell once, so a dataset it
// loaded counts distinct cells, not CSV rows.
func (d *Dataset) Facts() int64 { return d.facts }

// freeze finalizes the sparse array (idempotent).
func (d *Dataset) freeze() *array.Sparse {
	if d.sparse == nil {
		d.sparse = d.builder.Build()
		d.builder = nil
	}
	return d.sparse
}

// Cells returns the number of distinct non-empty cells. It freezes the
// dataset.
func (d *Dataset) Cells() int { return d.freeze().NNZ() }
