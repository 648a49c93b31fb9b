package server

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"parcube/internal/array"
	"parcube/internal/comm"
)

// handleDense answers "DENSE GROUPBY <dims>" and "DENSE QUERY <stmt>"
// (req is the line after DENSE) like GROUPBY and QUERY, in the dense form.
func (s *Server) handleDense(w *bufio.Writer, req string) {
	s.queries.Add(1)
	fields := strings.Fields(req)
	var (
		tbl Result
		err error
	)
	switch {
	case len(fields) > 0 && strings.EqualFold(fields[0], "GROUPBY"):
		tbl, err = s.backend.GroupBy(parseDims(fields[1:])...)
	case len(fields) > 0 && strings.EqualFold(fields[0], "QUERY"):
		tbl, err = s.backend.Query(strings.TrimSpace(req[len(fields[0]):]))
	default:
		s.errf(w, "DENSE takes GROUPBY or QUERY, not %q", req)
		return
	}
	if err != nil {
		s.errf(w, "%v", err)
		return
	}
	s.cells.Add(int64(tbl.Size()))
	writeDense(w, TableOf(tbl))
}

// writeDense answers a group-by in the dense form: the header line
// "OK <cells> <extent...>", then the cells' values as 8·cells bytes of
// little-endian float64 in row-major order, framed by internal/comm's
// payload codec. A 0-D table (the grand total) has no extents and one
// cell. Write errors surface on the caller's flush.
func writeDense(w *bufio.Writer, tbl *Table) {
	d := tbl.Dense()
	hdr := append(w.AvailableBuffer(), "OK "...)
	hdr = strconv.AppendInt(hdr, int64(d.Size()), 10)
	for _, e := range d.Shape() {
		hdr = append(hdr, ' ')
		hdr = strconv.AppendInt(hdr, int64(e), 10)
	}
	hdr = append(hdr, '\n')
	if _, err := w.Write(hdr); err != nil {
		return
	}
	_ = comm.WriteFloat64s(w, d.Data())
}

// readDense decodes one dense reply from r. limit bounds the table: a
// header whose extents multiply past limit cells, or whose cell count
// disagrees with its extents, is rejected before anything is allocated
// for the values. An "ERR ..." line is a *RemoteError, as for every
// other reply.
func readDense(r *bufio.Reader, limit int) (*Table, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	payload, err := parseOK(line)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(payload)
	if len(fields) == 0 {
		return nil, fmt.Errorf("server: malformed dense header %q", line)
	}
	cells, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("server: malformed dense header %q", line)
	}
	shape := make([]int, len(fields)-1)
	volume := 1
	for i, f := range fields[1:] {
		e, err := strconv.Atoi(f)
		if err != nil || e < 1 || e > limit/volume {
			return nil, fmt.Errorf("server: dense extents %v are not a table of at most %d cells", fields[1:], limit)
		}
		volume *= e
		shape[i] = e
	}
	if cells != volume || volume > limit {
		return nil, fmt.Errorf("server: dense reply of %d cells for extents %v (limit %d)", cells, shape, limit)
	}
	data := make([]float64, cells)
	if err := comm.ReadFloat64s(r, data); err != nil {
		return nil, fmt.Errorf("server: dense reply body: %w", err)
	}
	return NewTable(array.Wrap(shape, data)), nil
}

// GroupByDense fetches a full group-by in the dense form (DENSE GROUPBY),
// the shard hop's reply: no coordinates on the wire. limit bounds the
// reply's cells before they are allocated (a coordinator passes its
// schema's volume), and the whole reply is read under one deadline.
func (c *Client) GroupByDense(limit int, dims ...string) (*Table, error) {
	return c.dense("DENSE GROUPBY "+strings.Join(dims, ","), limit)
}

// QueryDense is GroupByDense for a parcube query-language statement
// (DENSE QUERY).
func (c *Client) QueryDense(limit int, stmt string) (*Table, error) {
	return c.dense("DENSE QUERY "+stmt, limit)
}

func (c *Client) dense(req string, limit int) (*Table, error) {
	if err := c.send(req); err != nil {
		return nil, err
	}
	return readDense(c.r, limit)
}
