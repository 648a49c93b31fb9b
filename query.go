package parcube

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"parcube/internal/array"
	"parcube/internal/lattice"
	"parcube/internal/nd"
)

// Query answers a small OLAP query language over the cube:
//
//	[GROUP BY dim {, dim}] [WHERE cond {AND cond}] [TOP n]
//
// where cond is either `dim = value` or `dim BETWEEN lo AND hi`
// (inclusive bounds, integer coordinates). Keywords are case-insensitive;
// dimension names are case-sensitive. Examples:
//
//	GROUP BY item
//	GROUP BY item, branch WHERE time BETWEEN 0 AND 3
//	WHERE branch = 2                      (grand total of branch 2)
//	GROUP BY item WHERE branch = 2 TOP 5
//
// Filtered dimensions not listed in GROUP BY are aggregated away after
// filtering. The result is the table over the GROUP BY dimensions; with a
// BETWEEN filter on a grouped dimension, its coordinates are re-based to
// the range's lower bound.
func (c *Cube) Query(query string) (*Table, error) {
	q, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	return c.execute(q)
}

// QueryTop is Query for statements with a TOP clause (also accepted by
// Query, which then returns the full table): it returns the top-k cells.
func (c *Cube) QueryTop(query string) ([]CellValue, error) {
	q, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	if q.top <= 0 {
		return nil, fmt.Errorf("parcube: query has no TOP clause")
	}
	tbl, err := c.execute(q)
	if err != nil {
		return nil, err
	}
	return tbl.Top(q.top), nil
}

// QueryBox returns the cells a statement reads, as one half-open range
// per dimension of names (whose extents are sizes): the range its WHERE
// clause keeps, or the whole extent for an unfiltered dimension. A fact
// outside the box cannot change the statement's answer, whatever the
// operator and with or without TOP, so a cache may keep the answer across
// such facts, and a sharded cube need not ask a block the box misses. It
// fails, with Query's error, on every statement Query rejects over a cube
// of this schema: one it cannot parse, that names a dimension not in
// names, or whose filters leave the extents.
func QueryBox(query string, names []string, sizes []int) ([]Range, error) {
	if len(names) != len(sizes) {
		return nil, fmt.Errorf("parcube: %d dimension names for %d sizes", len(names), len(sizes))
	}
	q, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	if _, _, err := q.resolve(names); err != nil {
		return nil, err
	}
	return q.box(names, sizes)
}

// parsedQuery is the parsed form.
type parsedQuery struct {
	groupBy []string
	eq      map[string]int
	between map[string]Range
	top     int
}

// resolve maps the statement's dimensions onto names: keep holds the
// grouped ones, read every one it groups or filters. It fails as
// Cube.GroupBy over the grouped names, then the filtered ones, would.
func (q *parsedQuery) resolve(names []string) (keep, read lattice.DimSet, err error) {
	for _, name := range q.groupBy {
		i := slices.Index(names, name)
		if i < 0 {
			return 0, 0, fmt.Errorf("parcube: unknown dimension %q", name)
		}
		if keep.Has(i) {
			return 0, 0, fmt.Errorf("parcube: dimension %q repeated", name)
		}
		keep = keep.With(i)
	}
	read = keep
	for _, name := range q.filtered() {
		i := slices.Index(names, name)
		if i < 0 {
			return 0, 0, fmt.Errorf("parcube: unknown dimension %q", name)
		}
		read = read.With(i)
	}
	return keep, read, nil
}

// filtered returns the names the WHERE clause filters, sorted.
func (q *parsedQuery) filtered() []string {
	out := make([]string, 0, len(q.eq)+len(q.between))
	for name := range q.eq {
		out = append(out, name)
	}
	for name := range q.between {
		if _, ok := q.eq[name]; !ok {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// box returns the cells the statement reads over names (every filtered
// name among them) with extents sizes. A BETWEEN must lie inside its
// extent, and an equality inside its dimension's range, BETWEEN-narrowed
// or whole: the checks, and their errors, of dicing the working table
// and then slicing it.
func (q *parsedQuery) box(names []string, sizes []int) ([]Range, error) {
	box := make([]Range, len(names))
	for i, name := range names {
		box[i] = Range{Lo: 0, Hi: sizes[i]}
		if r, ok := q.between[name]; ok {
			if r.Lo < 0 || r.Hi > sizes[i] || r.Lo >= r.Hi {
				return nil, fmt.Errorf("parcube: range [%d,%d) invalid for %q (extent %d)", r.Lo, r.Hi, name, sizes[i])
			}
			box[i] = r
		}
	}
	for i, name := range names {
		if v, ok := q.eq[name]; ok {
			r := box[i]
			if v < r.Lo || v >= r.Hi {
				return nil, fmt.Errorf("parcube: index %d out of range for %q", v-r.Lo, name)
			}
			box[i] = Range{Lo: v, Hi: v + 1}
		}
	}
	return box, nil
}

// execute runs a parsed query: it takes the group-by over every
// dimension the statement reads and folds the cells inside the WHERE
// box onto the grouped dimensions in one pass (array.ProjectDense), in
// row-major order, so the same statement always returns the same bits.
// An unfiltered group-by is the stored table itself.
func (c *Cube) execute(q *parsedQuery) (*Table, error) {
	keep, read, err := q.resolve(c.schema.names)
	if err != nil {
		return nil, err
	}
	work, err := c.groupBy(read)
	if err != nil {
		return nil, err
	}
	if len(q.eq) == 0 && len(q.between) == 0 {
		return c.table(keep, work), nil
	}
	box, err := q.box(c.schema.names, c.schema.shape)
	if err != nil {
		return nil, err
	}
	// The working table's axes are read's dimensions in schema order.
	dims := read.Dims()
	b := nd.Block{Lo: make([]int, len(dims)), Hi: make([]int, len(dims))}
	keepAxes := make([]int, 0, keep.Count())
	for i, d := range dims {
		b.Lo[i], b.Hi[i] = box[d].Lo, box[d].Hi
		if keep.Has(d) {
			keepAxes = append(keepAxes, i)
		}
	}
	out, _ := array.ProjectDense(work, b, keepAxes, c.op)
	return c.table(keep, out), nil
}

// parseQuery tokenizes and parses the query string.
func parseQuery(query string) (*parsedQuery, error) {
	tokens := tokenize(query)
	q := &parsedQuery{eq: map[string]int{}, between: map[string]Range{}}
	p := &parser{tokens: tokens}
	if p.acceptKeyword("GROUP") {
		if !p.acceptKeyword("BY") {
			return nil, p.errf("expected BY after GROUP")
		}
		for {
			name, ok := p.next()
			if !ok {
				return nil, p.errf("expected dimension after GROUP BY")
			}
			q.groupBy = append(q.groupBy, name)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		for {
			name, ok := p.next()
			if !ok {
				return nil, p.errf("expected dimension after WHERE")
			}
			switch {
			case p.accept("="):
				v, err := p.nextInt()
				if err != nil {
					return nil, err
				}
				if _, dup := q.eq[name]; dup {
					return nil, fmt.Errorf("parcube: duplicate filter on %q", name)
				}
				q.eq[name] = v
			case p.acceptKeyword("BETWEEN"):
				lo, err := p.nextInt()
				if err != nil {
					return nil, err
				}
				if !p.acceptKeyword("AND") {
					return nil, p.errf("expected AND in BETWEEN")
				}
				hi, err := p.nextInt()
				if err != nil {
					return nil, err
				}
				if hi < lo {
					return nil, fmt.Errorf("parcube: empty range %d..%d on %q", lo, hi, name)
				}
				if _, dup := q.between[name]; dup {
					return nil, fmt.Errorf("parcube: duplicate filter on %q", name)
				}
				q.between[name] = Range{Lo: lo, Hi: hi + 1} // inclusive -> half-open
			default:
				return nil, p.errf("expected = or BETWEEN after %q", name)
			}
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if p.acceptKeyword("TOP") {
		n, err := p.nextInt()
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("parcube: TOP %d", n)
		}
		q.top = n
	}
	if tok, ok := p.peek(); ok {
		return nil, fmt.Errorf("parcube: unexpected token %q", tok)
	}
	// An equality on a grouped dimension would leave a phantom axis.
	for _, g := range q.groupBy {
		if _, ok := q.eq[g]; ok {
			return nil, fmt.Errorf("parcube: dimension %q is both grouped and equality-filtered; use BETWEEN to keep it", g)
		}
	}
	return q, nil
}

// tokenize splits on whitespace, treating ',' and '=' as their own tokens.
func tokenize(s string) []string {
	s = strings.ReplaceAll(s, ",", " , ")
	s = strings.ReplaceAll(s, "=", " = ")
	return strings.Fields(s)
}

// parser is a cursor over tokens.
type parser struct {
	tokens []string
	pos    int
}

func (p *parser) peek() (string, bool) {
	if p.pos >= len(p.tokens) {
		return "", false
	}
	return p.tokens[p.pos], true
}

func (p *parser) next() (string, bool) {
	tok, ok := p.peek()
	if ok {
		p.pos++
	}
	return tok, ok
}

// accept consumes the token if it matches exactly.
func (p *parser) accept(tok string) bool {
	if cur, ok := p.peek(); ok && cur == tok {
		p.pos++
		return true
	}
	return false
}

// acceptKeyword consumes the token if it matches case-insensitively.
func (p *parser) acceptKeyword(kw string) bool {
	if cur, ok := p.peek(); ok && strings.EqualFold(cur, kw) {
		p.pos++
		return true
	}
	return false
}

// nextInt consumes an integer token.
func (p *parser) nextInt() (int, error) {
	tok, ok := p.next()
	if !ok {
		return 0, p.errf("expected a number")
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("parcube: expected a number, got %q", tok)
	}
	return v, nil
}

// errf builds a position-aware parse error.
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("parcube: query parse error at token %d: %s", p.pos, fmt.Sprintf(format, args...))
}
