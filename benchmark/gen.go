package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"parcube"
	"parcube/internal/array"
	"parcube/internal/nd"
	"parcube/internal/server"
	"parcube/internal/workload"
)

// Everything a run feeds the system is derived here from -seed: the same
// seed gives the same facts, statements, request order and deltas.

// servingDims is the common serving schema a:32,b:32,c:16,d:16.
var servingDims = []parcube.Dim{
	{Name: "a", Size: 32}, {Name: "b", Size: 32}, {Name: "c", Size: 16}, {Name: "d", Size: 16},
}

const servingFacts = 50000

// buildSizes is the build workload's array: unequal sizes so the
// Theorem 6 ordering and the Theorem 8 partition are not trivial.
var buildSizes = []int{64, 64, 32, 32}

const buildSparsityPercent = 10

func newSchema(dims []parcube.Dim) *parcube.Schema {
	s, err := parcube.NewSchema(dims...)
	if err != nil {
		panic(err) // the dimension lists above are constants
	}
	return s
}

// fact is one generated fact of the serving dataset.
type fact struct {
	coords [4]int
	value  float64
}

// genServingFacts draws servingFacts facts with integer measures, so
// every aggregate is exact in float64 and replies compare byte for byte.
func genServingFacts(seed int64) []fact {
	rng := rand.New(rand.NewSource(seed))
	facts := make([]fact, servingFacts)
	for i := range facts {
		for j, d := range servingDims {
			facts[i].coords[j] = rng.Intn(d.Size)
		}
		facts[i].value = float64(rng.Intn(9) + 1)
	}
	return facts
}

func servingDataset(facts []fact) (*parcube.Dataset, error) {
	ds := parcube.NewDataset(newSchema(servingDims))
	for i := range facts {
		if err := ds.Add(facts[i].value, facts[i].coords[:]...); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// servingSparse is the same data as the engines' own input type, for the
// probes that call a kernel or an engine directly.
func servingSparse(facts []fact) (*array.Sparse, error) {
	sizes := make([]int, len(servingDims))
	for i, d := range servingDims {
		sizes[i] = d.Size
	}
	b, err := array.NewSparseBuilder(nd.MustShape(sizes...), nil)
	if err != nil {
		return nil, err
	}
	for i := range facts {
		if err := b.Add(facts[i].coords[:], facts[i].value); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// genBuildInput is the paper's experiment input, a uniform sparse array,
// as the engines' input type and as the public API's Dataset.
func genBuildInput(seed int64) (*array.Sparse, *parcube.Dataset, error) {
	sp, err := workload.Generate(workload.Spec{
		Shape:           nd.MustShape(buildSizes...),
		SparsityPercent: buildSparsityPercent,
		Seed:            seed,
	})
	if err != nil {
		return nil, nil, err
	}
	dims := make([]parcube.Dim, len(buildSizes))
	for i, n := range buildSizes {
		dims[i] = parcube.Dim{Name: string(rune('a' + i)), Size: n}
	}
	ds := parcube.NewDataset(newSchema(dims))
	var addErr error
	sp.Iter(func(coords []int, v float64) {
		if addErr == nil {
			addErr = ds.Add(v, coords...)
		}
	})
	return sp, ds, addErr
}

// Result-size classes of the three statement templates. Each template
// names three of the four dimensions, so a shard answers it from a
// materialized 3-D group-by and never densifies its input.
const (
	class16 = iota
	class256
	class1024
	numClasses
)

var classCells = [numClasses]int{16, 256, 1024}

// classPattern assigns a class to every position of a statement set: ten
// positions hold the 70/20/10 mix, and the pattern repeats. The position
// is also the statement's popularity rank under Zipf, so the share of
// traffic each class gets is the same for every seed; the seed decides
// only which slice, dice and range each statement asks for.
var classPattern = [10]int{class16, class16, class256, class16, class16, class1024, class16, class256, class16, class16}

type statement struct {
	text  string // the QUERY argument
	class int
}

func between(rng *rand.Rand, size int) (lo, hi int) {
	lo, hi = rng.Intn(size), rng.Intn(size)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

func genStatementText(rng *rand.Rand, class int) string {
	switch class {
	case class16:
		lo, hi := between(rng, 32)
		return fmt.Sprintf("GROUP BY c WHERE a = %d AND b BETWEEN %d AND %d", rng.Intn(32), lo, hi)
	case class256:
		lo, hi := between(rng, 32)
		return fmt.Sprintf("GROUP BY c, d WHERE a BETWEEN %d AND %d", lo, hi)
	default:
		lo, hi := between(rng, 16)
		return fmt.Sprintf("GROUP BY a, b WHERE %c BETWEEN %d AND %d", "cd"[rng.Intn(2)], lo, hi)
	}
}

// genStatements returns n distinct statements, the class of each fixed
// by its position.
func genStatements(seed int64, n int) []statement {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := make(map[string]bool, n)
	out := make([]statement, 0, n)
	for len(out) < n {
		class := classPattern[len(out)%len(classPattern)]
		text := genStatementText(rng, class)
		if seen[text] {
			continue
		}
		seen[text] = true
		out = append(out, statement{text: text, class: class})
	}
	return out
}

// picker draws the next statement index of a request stream.
type picker func() int

// newPicker returns a Zipf(s) picker over n statements when s > 1 and a
// uniform one otherwise; stream separates the clients of one run.
func newPicker(seed int64, stream, n int, zipfS float64) picker {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)))
	if zipfS > 1 {
		z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// deltaGen draws single-row delta records. Coordinates have two digits
// and values one, so every record has the same encoded length and
// wal_bytes_per_rec does not depend on the seed.
type deltaGen struct{ rng *rand.Rand }

func newDeltaGen(seed int64) *deltaGen {
	return &deltaGen{rng: rand.New(rand.NewSource(seed ^ 0xde17a))}
}

func (g *deltaGen) row() server.Row {
	return server.Row{
		Coords: []int{10 + g.rng.Intn(22), 10 + g.rng.Intn(22), 10 + g.rng.Intn(6), 10 + g.rng.Intn(6)},
		Value:  float64(1 + g.rng.Intn(9)),
	}
}

func (g *deltaGen) batch(n int) []server.Row {
	rows := make([]server.Row, n)
	for i := range rows {
		rows[i] = g.row()
	}
	return rows
}

// deltaBatchBody renders a DELTABATCH request of single-row records with
// server-assigned LSNs, as one mux frame body.
func deltaBatchBody(rows []server.Row) []byte {
	b := make([]byte, 0, 32+24*len(rows))
	b = append(b, "DELTABATCH "...)
	b = strconv.AppendInt(b, int64(len(rows)), 10)
	b = append(b, '\n')
	for _, r := range rows {
		b = append(b, "1 0\n"...)
		b = appendRow(b, r.Coords, r.Value)
	}
	return append(b, ".\n"...)
}

func appendRow(b []byte, coords []int, v float64) []byte {
	for i, c := range coords {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	b = append(b, ' ')
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

// expectedReply renders the exact response body the line protocol gives
// for a table reply: "OK <n>", one "coords value" row per cell in
// row-major order, and the closing dot. A reply equal to it is cell-exact.
func expectedReply(tbl *parcube.Table) []byte {
	shape := tbl.Shape()
	b := make([]byte, 0, 16+12*tbl.Size())
	b = append(b, "OK "...)
	b = strconv.AppendInt(b, int64(tbl.Size()), 10)
	b = append(b, '\n')
	coords := make([]int, len(shape))
	for {
		b = appendRow(b, coords, tbl.At(coords...))
		i := len(coords) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] < shape[i] {
				break
			}
			coords[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return append(b, ".\n"...)
}
