package parcube

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
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
// such facts. It fails on a statement Query cannot parse, or one that
// filters a dimension not in names.
func QueryBox(query string, names []string, sizes []int) ([]Range, error) {
	if len(names) != len(sizes) {
		return nil, fmt.Errorf("parcube: %d dimension names for %d sizes", len(names), len(sizes))
	}
	q, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	box := make([]Range, len(names))
	for i := range box {
		box[i] = Range{Lo: 0, Hi: sizes[i]}
	}
	narrow := func(name string, r Range) error {
		i := slices.Index(names, name)
		if i < 0 {
			return fmt.Errorf("parcube: unknown dimension %q", name)
		}
		box[i] = Range{Lo: max(box[i].Lo, r.Lo), Hi: min(box[i].Hi, r.Hi)}
		return nil
	}
	for name, v := range q.eq {
		if err := narrow(name, Range{Lo: v, Hi: v + 1}); err != nil {
			return nil, err
		}
	}
	for name, r := range q.between {
		if err := narrow(name, r); err != nil {
			return nil, err
		}
	}
	return box, nil
}

// parsedQuery is the parsed form.
type parsedQuery struct {
	groupBy []string
	eq      map[string]int
	between map[string]Range
	top     int
}

// execute plans and runs a parsed query.
func (c *Cube) execute(q *parsedQuery) (*Table, error) {
	// The working group-by must retain every referenced dimension.
	needed := append([]string(nil), q.groupBy...)
	has := make(map[string]bool, len(needed))
	for _, n := range needed {
		has[n] = true
	}
	for name := range q.eq {
		if !has[name] {
			needed = append(needed, name)
			has[name] = true
		}
	}
	for name := range q.between {
		if !has[name] {
			needed = append(needed, name)
			has[name] = true
		}
	}
	tbl, err := c.GroupBy(needed...)
	if err != nil {
		return nil, err
	}
	// Dice ranges first (keeps dimensions), then slice equalities (drops
	// them), then roll up leftover range-filtered dimensions that were not
	// asked for.
	if len(q.between) > 0 {
		tbl, err = tbl.Dice(q.between)
		if err != nil {
			return nil, err
		}
	}
	for name, v := range q.eq {
		idx := v
		if r, ok := q.between[name]; ok {
			idx -= r.Lo // coordinates re-based by Dice
		}
		tbl, err = tbl.Slice(name, idx)
		if err != nil {
			return nil, err
		}
	}
	grouped := make(map[string]bool, len(q.groupBy))
	for _, n := range q.groupBy {
		grouped[n] = true
	}
	for name := range q.between {
		if !grouped[name] {
			if _, sliced := q.eq[name]; sliced {
				continue
			}
			tbl, err = tbl.Rollup(name)
			if err != nil {
				return nil, err
			}
		}
	}
	return tbl, nil
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
