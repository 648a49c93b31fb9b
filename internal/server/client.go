package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"parcube/internal/mux"
)

// Client speaks the cube server protocol.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
}

// RemoteError is an application-level "ERR ..." reply from the server:
// the request was rejected but the connection is alive and in sync.
// Callers distinguish it (errors.As) from transport failures, which
// leave the stream unusable — a coordinator marks a replica down on a
// transport error but not on a clean rejection.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server: " + e.Msg }

// Row is one cell returned by GroupBy or Top.
type Row struct {
	Coords []int
	Value  float64
}

// Dial connects to a cube server with no bound on the dial: the
// documented blocking variant for interactive tools. Servers and
// coordinators use DialTimeout.
func Dial(addr string) (*Client, error) {
	//cubelint:ignore deadline Dial is the documented unbounded variant; bounded callers use DialTimeout
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// DialTimeout connects with a bound on the dial itself; d <= 0 dials like
// Dial. Request timeouts are separate — see SetTimeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	if d <= 0 {
		return Dial(addr)
	}
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// SetTimeout bounds every subsequent request: the connection deadline is
// re-armed before each write and each response line read, so a stalled or
// dead server surfaces as an i/o timeout instead of blocking forever.
// Zero (the default) means no deadline.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Addr returns the remote address the client dialed.
func (c *Client) Addr() string { return c.conn.RemoteAddr().String() }

// arm refreshes the connection deadline when a timeout is configured.
func (c *Client) arm() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// Close sends QUIT and closes the connection. The first error from the
// farewell write, the flush, or the close is returned.
func (c *Client) Close() error {
	c.arm()
	_, werr := fmt.Fprintln(c.w, "QUIT")
	ferr := c.w.Flush()
	cerr := c.conn.Close()
	if werr != nil {
		return werr
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// send arms the deadline the whole exchange runs under and writes one
// request line.
func (c *Client) send(req string) error {
	c.arm()
	if _, err := fmt.Fprintln(c.w, req); err != nil {
		return err
	}
	return c.w.Flush()
}

// roundTrip sends one request line and returns the "OK ..." payload.
func (c *Client) roundTrip(req string) (string, error) {
	if err := c.send(req); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return parseOK(line)
}

// parseOK extracts the payload of an "OK ..." reply line. "ERR ..."
// replies become a *RemoteError; admission rejections additionally
// satisfy errors.Is(err, mux.ErrOverloaded) so callers can tell
// overload shedding from a request the server considered invalid.
func parseOK(line string) (string, error) {
	line = strings.TrimSpace(line)
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		if mux.IsOverloadReply(msg) {
			return "", fmt.Errorf("%w: %w", mux.ErrOverloaded, &RemoteError{Msg: msg})
		}
		return "", &RemoteError{Msg: msg}
	}
	if !strings.HasPrefix(line, "OK") {
		return "", fmt.Errorf("server: malformed response %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, "OK")), nil
}

// Schema returns the served dimensions as name:size pairs.
func (c *Client) Schema() ([]string, error) {
	payload, err := c.roundTrip("SCHEMA")
	if err != nil {
		return nil, err
	}
	return strings.Fields(payload), nil
}

// Total returns the grand-total aggregate.
func (c *Client) Total() (float64, error) {
	payload, err := c.roundTrip("TOTAL")
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(payload, 64)
}

// Value returns one cell of a group-by.
func (c *Client) Value(dims []string, coords []int) (float64, error) {
	req := "VALUE " + strings.Join(dims, ",")
	if len(coords) > 0 {
		parts := make([]string, len(coords))
		for i, v := range coords {
			parts[i] = strconv.Itoa(v)
		}
		req += " " + strings.Join(parts, ",")
	}
	payload, err := c.roundTrip(req)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(payload, 64)
}

// maxRowPrealloc caps the capacity hint taken from a server's row-count
// reply: the count is untrusted wire input, so a malicious "OK 1000000000"
// must not force a giant allocation before any row arrives (cubelint
// untrusted-alloc). Larger results grow normally via append.
const maxRowPrealloc = 4096

// readRows reads n "coords value" lines plus the closing dot.
func (c *Client) readRows(n int) ([]Row, error) {
	c.arm()
	return parseRows(c.r, n, c.arm)
}

// parseRows decodes n "coords value" lines plus the closing dot from any
// reader — the live connection here, or a mux response body in
// MuxClient. arm, when non-nil, refreshes the transport deadline before
// each line read.
func parseRows(r *bufio.Reader, n int, arm func()) ([]Row, error) {
	rows := make([]Row, 0, min(n, maxRowPrealloc))
	for {
		if arm != nil {
			arm()
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "." {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("server: malformed row %q", line)
		}
		row, err := parseRow(fields[0], fields[1])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("server: got %d rows, expected %d", len(rows), n)
	}
	return rows, nil
}

// parseRow decodes one cell from its "c0,c1,..." ("-" for the grand
// total) and value fields.
func parseRow(coordsField, valueField string) (Row, error) {
	var coords []int
	if coordsField != "-" {
		for _, p := range strings.Split(coordsField, ",") {
			v, err := strconv.Atoi(p)
			if err != nil {
				return Row{}, fmt.Errorf("server: malformed coords %q", coordsField)
			}
			coords = append(coords, v)
		}
	}
	v, err := strconv.ParseFloat(valueField, 64)
	if err != nil {
		return Row{}, fmt.Errorf("server: malformed value %q", valueField)
	}
	return Row{Coords: coords, Value: v}, nil
}

// GroupBy fetches a full group-by.
func (c *Client) GroupBy(dims ...string) ([]Row, error) {
	payload, err := c.roundTrip("GROUPBY " + strings.Join(dims, ","))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return c.readRows(n)
}

// Query runs a parcube query-language statement and returns its table's
// cells.
func (c *Client) Query(stmt string) ([]Row, error) {
	payload, err := c.roundTrip("QUERY " + stmt)
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return c.readRows(n)
}

// parseFields splits a "k=v k=v ..." payload into a map.
func parseFields(payload string) map[string]string {
	out := make(map[string]string)
	for _, f := range strings.Fields(payload) {
		if i := strings.IndexByte(f, '='); i > 0 {
			out[f[:i]] = f[i+1:]
		}
	}
	return out
}

// ShardInfo fetches the shard handshake: the node id, aggregation
// operator name, and served block of a shard server, as "id"/"op"/"block"
// keys. Non-shard servers answer with an error.
func (c *Client) ShardInfo() (map[string]string, error) {
	payload, err := c.roundTrip("SHARDINFO")
	if err != nil {
		return nil, err
	}
	return parseFields(payload), nil
}

// Stats fetches the server's load counters as key=value fields.
func (c *Client) Stats() (map[string]string, error) {
	payload, err := c.roundTrip("STATS")
	if err != nil {
		return nil, err
	}
	return parseFields(payload), nil
}

// writeRecord streams one ingest record — its header line, then one
// "<coords> <value>" line per cell — re-arming the deadline per line.
func (c *Client) writeRecord(header string, rows []Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("server: empty delta")
	}
	c.arm()
	if _, err := fmt.Fprintln(c.w, header); err != nil {
		return err
	}
	for _, row := range rows {
		c.arm()
		if _, err := fmt.Fprintf(c.w, "%s %g\n", joinCoords(row.Coords), row.Value); err != nil {
			return err
		}
	}
	return nil
}

// finishIngest terminates a DELTA or DELTABATCH payload and parses the
// "lsn=<n> applied=<k>" acknowledgement.
func (c *Client) finishIngest() (lastLSN uint64, applied int, err error) {
	if _, err := fmt.Fprintln(c.w, "."); err != nil {
		return 0, 0, err
	}
	if err := c.w.Flush(); err != nil {
		return 0, 0, err
	}
	c.arm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	payload, err := parseOK(line)
	if err != nil {
		return 0, 0, err
	}
	f := parseFields(payload)
	if lastLSN, err = strconv.ParseUint(f["lsn"], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("server: malformed ingest ack %q", line)
	}
	if applied, err = strconv.Atoi(f["applied"]); err != nil {
		return 0, 0, fmt.Errorf("server: malformed ingest ack %q", line)
	}
	return lastLSN, applied, nil
}

// Delta ingests one record, letting the server assign the LSN (the
// plain "DELTA <cells>" form). The returned LSN is durable when the
// call succeeds.
func (c *Client) Delta(rows []Row) (uint64, error) {
	if err := c.writeRecord(fmt.Sprintf("DELTA %d", len(rows)), rows); err != nil {
		return 0, err
	}
	lsn, _, err := c.finishIngest()
	return lsn, err
}

// DeltaBatch ingests a run of records in one DELTABATCH round trip:
// every applied record is durable — under a single log write and sync
// on durable nodes — when the call returns. Each record carries its own
// LSN (0 lets the server assign the next one; replica lockstep sends
// exact positions). lastLSN is the server's log position after the run
// and applied how many records it applied; a clean rejection of record
// i surfaces as a *RemoteError with the records before i applied and
// durable on the server.
func (c *Client) DeltaBatch(recs []LoggedDelta) (lastLSN uint64, applied int, err error) {
	if len(recs) == 0 {
		return 0, 0, fmt.Errorf("server: empty delta batch")
	}
	c.arm()
	if _, err := fmt.Fprintf(c.w, "DELTABATCH %d\n", len(recs)); err != nil {
		return 0, 0, err
	}
	for _, rec := range recs {
		if err := c.writeRecord(fmt.Sprintf("%d %d", len(rec.Rows), rec.LSN), rec.Rows); err != nil {
			return 0, 0, err
		}
	}
	return c.finishIngest()
}

// replayStartRun is the first run length Replay tries.
const replayStartRun = 32

// Replay ingests a window of positioned records — a DELTASINCE tail a
// rejoining or joining replica is behind by — as consecutive DELTABATCH
// runs, stopping at the first failure; every step is idempotent, so the
// caller resumes from the server's reported position. A run may not
// exceed the server's limits (maxBatchRecords records, maxDeltaCells
// cells in total), and its ack must arrive within the request timeout
// although only the server knows what applying a record costs: so runs
// start small and double while a round trip takes under an eighth of
// the timeout. lastLSN and applied are as for DeltaBatch, over the runs
// that succeeded.
func (c *Client) Replay(recs []LoggedDelta) (lastLSN uint64, applied int, err error) {
	for run := replayStartRun; len(recs) > 0; {
		n, cells := 0, 0
		for n < len(recs) && n < run && cells+len(recs[n].Rows) <= maxDeltaCells {
			cells += len(recs[n].Rows)
			n++
		}
		n = max(n, 1) // a record over the cell limit goes alone; the server rejects it
		start := time.Now()
		last, k, err := c.DeltaBatch(recs[:n])
		applied += k
		if err != nil {
			return lastLSN, applied, err
		}
		lastLSN, recs = last, recs[n:]
		if c.timeout <= 0 || time.Since(start) < c.timeout/8 {
			run = min(2*run, maxBatchRecords)
		}
	}
	return lastLSN, applied, nil
}

// DeltasSince fetches the peer's durable log tail past lsn as records,
// oldest first. On the wire the tail is one line per logged cell; cells
// of the same record share an LSN and arrive consecutively.
func (c *Client) DeltasSince(lsn uint64) ([]LoggedDelta, error) {
	payload, err := c.roundTrip(fmt.Sprintf("DELTASINCE %d", lsn))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	var (
		recs []LoggedDelta
		got  int
	)
	for {
		c.arm()
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "." {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("server: malformed logged row %q", line)
		}
		recLSN, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("server: malformed LSN %q", fields[0])
		}
		row, err := parseRow(fields[1], fields[2])
		if err != nil {
			return nil, err
		}
		if last := len(recs) - 1; last >= 0 && recs[last].LSN == recLSN {
			recs[last].Rows = append(recs[last].Rows, row)
		} else {
			recs = append(recs, LoggedDelta{LSN: recLSN, Rows: []Row{row}})
		}
		got++
	}
	if got != n {
		return nil, fmt.Errorf("server: got %d logged rows, expected %d", got, n)
	}
	return recs, nil
}

// Truncate asks the peer to durably discard every logged record with
// LSN above lsn and rebuild its state without them (rejoin divergence
// repair). It returns the peer's last LSN after the truncation.
func (c *Client) Truncate(lsn uint64) (uint64, error) {
	payload, err := c.roundTrip(fmt.Sprintf("TRUNCATE %d", lsn))
	if err != nil {
		return 0, err
	}
	f := parseFields(payload)
	last, err := strconv.ParseUint(f["lsn"], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: malformed truncate ack %q", payload)
	}
	return last, nil
}

// CkptExport asks a durable node to publish a fresh checkpoint and
// stream it back: the donor side of a migration's state transfer.
func (c *Client) CkptExport() (lsn uint64, state []byte, err error) {
	payload, err := c.roundTrip("CKPTEXPORT")
	if err != nil {
		return 0, nil, err
	}
	f := parseFields(payload)
	if lsn, err = strconv.ParseUint(f["lsn"], 10, 64); err != nil {
		return 0, nil, fmt.Errorf("server: malformed export header %q", payload)
	}
	n, err := strconv.ParseInt(f["bytes"], 10, 64)
	if err != nil || n < 0 || n > maxShipBytes {
		return 0, nil, fmt.Errorf("server: implausible export size %q", f["bytes"])
	}
	state = make([]byte, n)
	c.arm()
	if _, err := io.ReadFull(c.r, state); err != nil {
		return 0, nil, err
	}
	return lsn, state, nil
}

// ShipCkpt transfers an exported checkpoint to a fresh node, which
// adopts it as its durable base (SHIPCKPT); only empty nodes accept.
func (c *Client) ShipCkpt(lsn uint64, state []byte) error {
	c.arm()
	if _, err := fmt.Fprintf(c.w, "SHIPCKPT %d %d\n", lsn, len(state)); err != nil {
		return err
	}
	c.arm()
	if _, err := c.w.Write(state); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.arm()
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	_, err = parseOK(line)
	return err
}

// Join asks a coordinator's elastic controller to migrate the shard
// node at addr into the cluster.
func (c *Client) Join(addr string) error {
	_, err := c.roundTrip("JOIN " + addr)
	return err
}

// Drain asks a coordinator's elastic controller to migrate every group
// off the node at addr and retire it from the serving set.
func (c *Client) Drain(addr string) error {
	_, err := c.roundTrip("DRAIN " + addr)
	return err
}

// Rebalance asks a coordinator's elastic controller to re-plan over
// nodes shard nodes and execute the minimal migration set; it returns
// how many groups moved.
func (c *Client) Rebalance(nodes int) (int, error) {
	payload, err := c.roundTrip(fmt.Sprintf("REBALANCE %d", nodes))
	if err != nil {
		return 0, err
	}
	f := parseFields(payload)
	moves, err := strconv.Atoi(f["moves"])
	if err != nil {
		return 0, fmt.Errorf("server: malformed rebalance ack %q", payload)
	}
	return moves, nil
}

// Top fetches the k largest cells of a group-by.
func (c *Client) Top(k int, dims ...string) ([]Row, error) {
	payload, err := c.roundTrip(fmt.Sprintf("TOP %d %s", k, strings.Join(dims, ",")))
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(payload)
	if err != nil {
		return nil, fmt.Errorf("server: malformed count %q", payload)
	}
	return c.readRows(n)
}
