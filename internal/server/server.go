// Package server exposes a constructed cube over TCP with a small
// line-oriented text protocol, so downstream tools can query group-bys
// without linking the library. One goroutine serves each connection.
//
// Protocol (requests are single lines; dimension lists are comma-separated
// names):
//
//	SCHEMA                     -> "OK <name:size> <name:size> ..."
//	TOTAL                      -> "OK <value>"
//	GROUPBY <dims>             -> "OK <cells>", then one "<c0,c1,...> <value>" line per cell, then "."
//	QUERY <statement>          -> like GROUPBY, for the parcube query language
//	DENSE GROUPBY <dims>       -> "OK <cells> <extent...>", then 8*cells bytes: the cells'
//	DENSE QUERY <statement>       values as little-endian float64 in row-major order, with
//	                              no coordinates (the coordinator's form on the shard hop)
//	VALUE <dims> <c0,c1,...>   -> "OK <value>"
//	TOP <k> <dims>             -> "OK <rows>", then rows, then "."
//	STATS                      -> "OK queries=<n> cells=<n> uptime_sec=<s> ..."
//	SHARDINFO                  -> "OK id=<n> op=<op> block=<[lo:hi,...]> [lsn=<n>]" (shard nodes only)
//	DELTA <cells> [<lsn>]      -> then one "<c0,c1,...> <value>" line per cell and ".": a
//	                              DELTABATCH of one record (no lsn asks the backend to
//	                              assign), ingested and answered exactly like one
//	DELTABATCH <records>       -> then, per record, a "<cells> <lsn>" header line (lsn 0 asks
//	                              the backend to assign) followed by its cell lines, and a
//	                              final "."; answers "OK lsn=<n> applied=<k>" — n the backend's
//	                              log position, k the records applied — once every applied
//	                              record is durable under ONE log write and sync. A
//	                              record the backend rejects answers "ERR batch record <i>:
//	                              ..." with the records before it applied AND durable.
//	DELTASINCE <lsn>           -> "OK <rows>", then one "<lsn> <c0,c1,...> <value>" line per
//	                              logged cell (rows of one record share an LSN), then "."
//	TRUNCATE <lsn>             -> "OK lsn=<n>"; durably discards log records above <lsn> and
//	                              rebuilds state without them (rejoin divergence repair)
//	CKPTEXPORT                 -> "OK lsn=<n> bytes=<b>", then exactly b raw checkpoint-state
//	                              bytes — the donor side of a migration transfer
//	SHIPCKPT <lsn> <bytes>     -> then exactly <bytes> raw state bytes; the (empty) node
//	                              adopts them as its durable base and answers "OK lsn=<n>"
//	JOIN <addr>                -> "OK joined=<addr>"; asks the elastic controller to migrate
//	                              the shard node at <addr> into the cluster (coordinators)
//	DRAIN <addr>               -> "OK drained=<addr>"; migrates the node's groups away and
//	                              removes it from the serving set (coordinators)
//	REBALANCE <nodes>          -> "OK moves=<n>"; re-plans over <nodes> nodes (coordinators)
//	QUIT                       -> closes the connection
//	MUX <window>               -> "OK mux window=<w>"; upgrades the connection to the
//	                              multiplexed framing layer (internal/mux): many concurrent
//	                              requests per connection, out-of-order responses
//
// Errors answer "ERR <message>". DELTA, DELTASINCE and TRUNCATE answer an
// error on backends without ingest support (plain read-only cube servers).
//
// The Server is generic over a Backend: a local cube (New) or any other
// implementation of the query surface, such as internal/shard's
// scatter-gather coordinator (NewBackend).
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcube"
	"parcube/internal/mux"
	"parcube/internal/obs"
)

// Backend is the query surface a Server exposes over the wire. A local
// cube satisfies it through the adapter New installs; internal/shard's
// coordinator implements it with scatter-gather fan-out to shard nodes.
//
// A Result a backend returns is never modified afterwards: the server
// streams it, and the query cache keeps it, without a copy. A backend
// whose state changes under later deltas (a durable shard node) returns
// a copy taken under its lock (TableOf).
type Backend interface {
	// SchemaDims returns the dimension names and sizes, in schema order.
	SchemaDims() (names []string, sizes []int)
	// Total returns the grand-total aggregate.
	Total() (float64, error)
	// GroupBy returns the table retaining exactly the named dimensions,
	// with its axes in schema order whatever order they are named in.
	GroupBy(dims ...string) (Result, error)
	// Query runs a parcube query-language statement.
	Query(stmt string) (Result, error)
}

// ValueBackend is an optional Backend refinement for answering single-cell
// VALUE requests without materializing the whole group-by — the shard
// coordinator uses it to prune the fan-out to the blocks that can contain
// the cell.
type ValueBackend interface {
	Value(dims []string, coords []int) (float64, error)
}

// DeltaBackend is an optional Backend refinement for ingesting deltas.
// Shard nodes with a durable log implement it (append to the WAL, then
// apply); the coordinator implements it by fanning the delta out to the
// owning block's replicas.
type DeltaBackend interface {
	// Delta applies one batch of cells. lsn 0 asks the backend to assign
	// the next LSN; a nonzero lsn requests an exact position (replica
	// lockstep) and applied reports false when that LSN was already
	// ingested (idempotent redelivery).
	Delta(rows []Row, lsn uint64) (appliedLSN uint64, applied bool, err error)
}

// LoggedDelta is one durable delta record streamed by DeltasSince, and
// one record of a DELTABATCH ingest request.
type LoggedDelta struct {
	LSN  uint64
	Rows []Row
}

// DeltaBatchBackend is an optional DeltaBackend refinement ingesting a
// run of records in one call, so the whole batch can reach the durable
// log under a single write + fsync. Records apply in
// order with the same per-record LSN discipline as Delta (0 assigns the
// next LSN, at-or-below the log position skips idempotently, a gap
// rejects); the first rejected record stops the batch, with every
// record before it applied and durable. lastLSN reports the backend's
// log position after the batch, applied how many records were applied.
type DeltaBatchBackend interface {
	DeltaBatch(recs []LoggedDelta) (lastLSN uint64, applied int, err error)
}

// WALTailBackend is an optional Backend refinement exposing the durable
// log's tail, so a recovering replica can be caught up from a live peer
// instead of a full state transfer.
type WALTailBackend interface {
	// DeltasSince returns every logged record with LSN > lsn, oldest
	// first. It fails (wal.ErrTrimmed wrapped) when the tail was trimmed.
	DeltasSince(lsn uint64) ([]LoggedDelta, error)
	// LastLSN returns the newest durable record's LSN.
	LastLSN() uint64
}

// TruncateBackend is an optional Backend refinement for discarding the
// durable log's tail. A coordinator uses it during rejoin when a
// recovering replica's newest record was never acknowledged (or diverged
// from the group after a lost-ack round): the orphan record is dropped
// and the state rebuilt from checkpoint + surviving log, after which
// normal catch-up resupplies the group's true history.
type TruncateBackend interface {
	// TruncateTail durably removes every logged record with LSN above
	// lsn, rebuilds the state without them, and returns the new last LSN.
	TruncateTail(lsn uint64) (uint64, error)
}

// CheckpointBackend is an optional Backend refinement for whole-state
// transfer: the migration engine exports a durable checkpoint from a
// live donor (CKPTEXPORT) and ships it to a fresh node (SHIPCKPT),
// which adopts it as its durable base before WAL catch-up begins.
type CheckpointBackend interface {
	// ExportCheckpoint publishes a fresh checkpoint and returns its LSN
	// and raw state bytes.
	ExportCheckpoint() (lsn uint64, state []byte, err error)
	// ImportCheckpoint adopts shipped state as the node's durable base.
	// Only an empty node (no log records, no checkpoint) accepts it.
	ImportCheckpoint(lsn uint64, state []byte) error
}

// ElasticController is the cluster-membership surface a coordinator
// exposes over the wire (JOIN/DRAIN/REBALANCE): internal/elastic's
// manager implements it. Installed with SetElastic — a type assertion
// on the backend would not reach it, because serving-layer wrappers
// (the query cache) sit between the server and the coordinator.
type ElasticController interface {
	// Join migrates the shard node at addr into the cluster: checkpoint
	// ship, WAL catch-up, and an atomic read cutover.
	Join(addr string) error
	// Drain migrates every group off the node at addr and removes it
	// from the serving set; the node serves reads until the cutover.
	Drain(addr string) error
	// Rebalance re-plans over nodes shard nodes and executes the minimal
	// migration set, returning how many groups moved.
	Rebalance(nodes int) (moves int, err error)
}

// StatsReporter is an optional Backend refinement that appends extra
// key=value fields to the STATS response (the coordinator reports fan-out
// and failover counters this way).
type StatsReporter interface {
	StatsFields() []string
}

// ShardInfo identifies a shard node: which block of the global array it
// serves and under which aggregation operator, so a coordinator can
// discover the cluster topology with a SHARDINFO handshake.
type ShardInfo struct {
	// ID is the shard node's index in the plan.
	ID int
	// Op is the aggregation operator name ("sum", "count", "max", "min").
	Op string
	// Block renders the served global sub-box, e.g. "[0:8,0:16]".
	Block string
	// Epoch is the plan epoch the node was started under (0 when the
	// plan predates epochs); coordinators echo their serving epoch.
	Epoch uint64
}

// Server serves one backend.
type Server struct {
	backend Backend

	// ReadTimeout and WriteTimeout, when positive, bound each request read
	// and each response flush so a stalled peer cannot pin a connection
	// goroutine forever. Both default to zero (no deadline) to preserve
	// long-lived idle clients; set them before Listen.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// MuxWindow caps the per-connection flow-control window granted to
	// clients that upgrade with "MUX <n>" (mux.DefaultWindow when zero).
	// Set before Listen.
	MuxWindow int

	// admission, when configured, gates every request — plain and
	// multiplexed — through the shared scheduler.
	admission *mux.Admission

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
	shard   *ShardInfo
	elastic ElasticController

	start       time.Time
	queries     atomic.Int64
	cells       atomic.Int64
	metrics     *obs.Registry
	cmd         map[string]cmdMetrics
	errors      *obs.Counter
	muxUpgrades *obs.Counter
}

// cmdMetrics pre-resolves one protocol command's counter and latency
// histogram, so the per-request hot path is two atomic ops with no
// registry lookup and no runtime-built metric names.
type cmdMetrics struct {
	count   *obs.Counter
	latency *obs.Histogram
}

// cubeBackend adapts *parcube.Cube to the Backend interface.
type cubeBackend struct{ cube *parcube.Cube }

func (b cubeBackend) SchemaDims() ([]string, []int) {
	sch := b.cube.Schema()
	return sch.Names(), sch.Sizes()
}

func (b cubeBackend) Total() (float64, error) { return b.cube.Total(), nil }

func (b cubeBackend) GroupBy(dims ...string) (Result, error) {
	tbl, err := b.cube.GroupBy(dims...)
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

func (b cubeBackend) Query(stmt string) (Result, error) {
	tbl, err := b.cube.Query(stmt)
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// New wraps a cube for serving.
func New(cube *parcube.Cube) *Server {
	return NewBackend(cubeBackend{cube: cube})
}

// NewBackend wraps any backend for serving.
func NewBackend(b Backend) *Server {
	s := &Server{backend: b, metrics: obs.NewRegistry()}
	s.errors = s.metrics.Counter("errors")
	s.muxUpgrades = s.metrics.Counter("mux.upgrades")
	s.cmd = make(map[string]cmdMetrics, len(knownCommands)+1)
	labels := make([]string, 0, len(knownCommands)+1)
	for _, label := range knownCommands {
		labels = append(labels, label)
	}
	labels = append(labels, "unknown")
	for _, label := range labels {
		//cubelint:ignore obs-metric label ranges over the closed knownCommands set; each series registers exactly once, here
		count := s.metrics.Counter("cmd." + label + ".count")
		//cubelint:ignore obs-metric label ranges over the closed knownCommands set; each series registers exactly once, here
		latency := s.metrics.Histogram("cmd." + label + "_ns")
		s.cmd[label] = cmdMetrics{count: count, latency: latency}
	}
	return s
}

// Metrics returns the server's per-instance registry: cmd.<name>.count
// counters and cmd.<name>_ns latency histograms per protocol command, and
// an errors counter. The same fields appear in the STATS reply.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// ConfigureAdmission installs a request scheduler in front of the
// backend: at most cfg.MaxInFlight requests execute at once across all
// connections (plain and multiplexed), at most cfg.MaxQueue wait, and
// queued requests past their command deadline are shed with a typed
// "ERR mux: overloaded ..." reply. Its metrics land in the server's
// registry, so STATS reports mux.inflight, mux.queued, mux.admitted,
// mux.overloads, and mux.expired. Call before Listen.
func (s *Server) ConfigureAdmission(cfg mux.AdmissionConfig) *mux.Admission {
	s.admission = mux.NewAdmission(cfg, s.metrics)
	return s.admission
}

// SetShardInfo marks the server as a shard node; SHARDINFO answers with
// the given identity. Call before Listen.
func (s *Server) SetShardInfo(info ShardInfo) {
	s.mu.Lock()
	s.shard = &info
	s.mu.Unlock()
}

// SetElastic installs the cluster-membership controller behind the
// JOIN, DRAIN, and REBALANCE commands. Call before Listen.
func (s *Server) SetElastic(ec ElasticController) {
	s.mu.Lock()
	s.elastic = ec
	s.mu.Unlock()
}

// Listen binds the address (use "127.0.0.1:0" for an ephemeral port) and
// starts accepting in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.start = time.Now()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the server abruptly: the listener and every open
// connection are closed, so handlers unblock even mid-request and idle
// peers (like a coordinator's connection pool) cannot pin the shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	ln := s.ln
	s.ln = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var errs []error
	if ln != nil {
		if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("server: close listener: %w", err))
		}
	}
	for _, c := range conns {
		// Handlers also close their conns on the way out, so a racing
		// double-close is expected here and not worth reporting.
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("server: close conn %s: %w", c.RemoteAddr(), err))
		}
	}
	s.wg.Wait()
	return errors.Join(errs...)
}

// track registers a live connection; forget drops it. A connection that
// loses the race with Close — accepted before the listener closed but
// tracked after Close snapshotted the conn set — would be missed by the
// shutdown sweep and pin wg.Wait forever, so track refuses it (closing
// it immediately) and reports whether the server took ownership.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		_ = conn.Close()
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	return true
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			return // Close raced this accept; the conn is already down
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.forget(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one connection's request loop.
func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		s.armRead(conn)
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if req, ok := muxUpgradeLine(line); ok {
			s.serveMux(conn, r, w, req)
			return
		}
		quit := s.dispatch(conn, r, w, line)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if err := w.Flush(); err != nil || quit {
			return
		}
	}
}

// muxUpgradeLine reports whether line is a "MUX <window>" upgrade
// request and extracts the requested window (0 when absent or
// malformed; the server then grants its own cap).
func muxUpgradeLine(line string) (int, bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.ToUpper(fields[0]) != "MUX" {
		return 0, false
	}
	req := 0
	if len(fields) >= 2 {
		if n, err := strconv.Atoi(fields[1]); err == nil {
			req = n
		}
	}
	return req, true
}

// dispatch gates one plain-protocol request through admission (when
// configured) before handing it to handle.
func (s *Server) dispatch(conn net.Conn, r *bufio.Reader, w *bufio.Writer, line string) bool {
	if s.admission != nil {
		cmd := strings.ToUpper(strings.Fields(line)[0])
		release, err := s.admission.Acquire(cmd)
		if err != nil {
			s.errf(w, "%v", err)
			// A shed DELTA/DELTABATCH still has payload lines in flight
			// that would desync the plain stream into garbage commands;
			// drop the connection instead. Mux framing has no such
			// problem — the payload lives inside the rejected frame.
			return cmd == "DELTA" || cmd == "DELTABATCH"
		}
		defer release()
	}
	return s.handle(conn, r, w, line)
}

// serveMux switches the connection to the multiplexed framing layer
// after a "MUX <window>" upgrade line. Each frame body is one
// plain-protocol exchange decoded against in-memory buffers, so every
// command — including DELTA with its payload — behaves exactly as on a
// plain connection, but many of them run concurrently per connection
// and responses return in completion order.
func (s *Server) serveMux(conn net.Conn, r *bufio.Reader, w *bufio.Writer, requested int) {
	s.muxUpgrades.Inc()
	_ = mux.Serve(conn, r, w, requested, s.muxHandle, mux.ServeOptions{
		Window:       s.MuxWindow,
		ReadTimeout:  s.ReadTimeout,
		WriteTimeout: s.WriteTimeout,
		Admission:    s.admission,
	})
}

// muxHandle executes one framed request body and returns the response
// bytes the plain protocol would have written.
//
//cubelint:hotpath per-request serving handler behind the mux
func (s *Server) muxHandle(req []byte) ([]byte, bool) {
	br := bufio.NewReader(bytes.NewReader(req))
	line, _ := br.ReadString('\n')
	line = strings.TrimSpace(line)
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	quit := false
	if line == "" {
		s.errf(bw, "empty request")
	} else {
		quit = s.handle(nil, br, bw, line)
	}
	// Flushing into a bytes.Buffer cannot fail.
	_ = bw.Flush()
	return out.Bytes(), quit
}

// armRead refreshes the connection's read deadline when one is
// configured, both between requests and between DELTA payload lines, so
// a peer stalling mid-upload cannot pin the handler.
func (s *Server) armRead(conn net.Conn) {
	if s.ReadTimeout > 0 && conn != nil {
		conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
	}
}

// knownCommands bounds the per-command metric label set, so arbitrary
// client input cannot grow the registry without limit.
var knownCommands = map[string]string{
	"QUIT": "quit", "STATS": "stats", "SHARDINFO": "shardinfo",
	"SCHEMA": "schema", "TOTAL": "total", "GROUPBY": "groupby",
	"QUERY": "query", "DENSE": "dense", "VALUE": "value", "TOP": "top",
	"DELTA": "delta", "DELTABATCH": "deltabatch",
	"DELTASINCE": "deltasince", "TRUNCATE": "truncate",
	"CKPTEXPORT": "ckptexport", "SHIPCKPT": "shipckpt",
	"JOIN": "join", "DRAIN": "drain", "REBALANCE": "rebalance",
}

// maxDeltaCells bounds one DELTA batch. The declared count is untrusted
// wire input: the bound rejects it before any allocation or unbounded
// read loop (cubelint untrusted-alloc), and keeps single WAL records
// comfortably under the log's own record-size cap.
const maxDeltaCells = 1 << 20

// errf answers one request with an ERR line and counts it.
//
//cubelint:ignore hot-fmt ERR replies are formatted once per failed request, by design
func (s *Server) errf(w *bufio.Writer, format string, args ...any) {
	s.errors.Inc()
	fmt.Fprintf(w, "ERR "+format+"\n", args...)
}

// handle answers one request line; returns true to close the
// connection. DELTA, DELTABATCH and SHIPCKPT additionally consume their
// payload from r, re-arming conn's read deadline as they go.
//
//cubelint:ignore hot-fmt,hot-box the line protocol's replies are formatted text by design; bulk data rides DELTABATCH and the framed mux path
func (s *Server) handle(conn net.Conn, r *bufio.Reader, w *bufio.Writer, line string) bool {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	label, ok := knownCommands[cmd]
	if !ok {
		label = "unknown"
	}
	cm := s.cmd[label]
	cm.count.Inc()
	defer cm.latency.ObserveSince(time.Now())
	switch cmd {
	case "QUIT":
		fmt.Fprintln(w, "OK bye")
		return true
	case "STATS":
		s.mu.Lock()
		start := s.start
		s.mu.Unlock()
		fmt.Fprintf(w, "OK queries=%d cells=%d uptime_sec=%.3f",
			s.queries.Load(), s.cells.Load(), time.Since(start).Seconds())
		for _, f := range s.metrics.Fields() {
			fmt.Fprintf(w, " %s", f)
		}
		// The process-wide build-engine registry rides along too, so a
		// STATS probe sees how the served cube was constructed (e.g.
		// parallel.comm.measured_elems vs parallel.comm.predicted_elems).
		for _, f := range obs.Default.Fields() {
			fmt.Fprintf(w, " %s", f)
		}
		if rep, ok := s.backend.(StatsReporter); ok {
			for _, f := range rep.StatsFields() {
				fmt.Fprintf(w, " %s", f)
			}
		}
		fmt.Fprintln(w)
	case "SHARDINFO":
		s.mu.Lock()
		info := s.shard
		s.mu.Unlock()
		if info == nil {
			s.errf(w, "not a shard node")
			return false
		}
		fmt.Fprintf(w, "OK id=%d op=%s block=%s", info.ID, info.Op, info.Block)
		if wb, ok := s.backend.(WALTailBackend); ok {
			fmt.Fprintf(w, " lsn=%d", wb.LastLSN())
		}
		if info.Epoch > 0 {
			fmt.Fprintf(w, " epoch=%d", info.Epoch)
		}
		fmt.Fprintln(w)
	case "SCHEMA":
		names, sizes := s.backend.SchemaDims()
		fmt.Fprint(w, "OK")
		for i := range names {
			fmt.Fprintf(w, " %s:%d", names[i], sizes[i])
		}
		fmt.Fprintln(w)
	case "TOTAL":
		s.queries.Add(1)
		v, err := s.backend.Total()
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		s.cells.Add(1)
		fmt.Fprintf(w, "OK %g\n", v)
	case "GROUPBY":
		s.queries.Add(1)
		tbl, err := s.backend.GroupBy(parseDims(fields[1:])...)
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		s.writeTable(w, tbl)
	case "QUERY":
		s.queries.Add(1)
		stmt := strings.TrimSpace(line[len(fields[0]):])
		tbl, err := s.backend.Query(stmt)
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		s.writeTable(w, tbl)
	case "DENSE":
		s.handleDense(w, strings.TrimSpace(line[len(fields[0]):]))
	case "VALUE":
		s.queries.Add(1)
		if len(fields) < 2 {
			s.errf(w, "VALUE needs dims and coordinates")
			return false
		}
		dims := parseDims(fields[1:2])
		var coordsField string
		if len(fields) >= 3 {
			coordsField = fields[2]
		} else if len(dims) == 0 {
			coordsField = ""
		}
		coords, err := parseCoords(coordsField, len(dims))
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		v, err := s.value(dims, coords)
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		s.cells.Add(1)
		fmt.Fprintf(w, "OK %g\n", v)
	case "TOP":
		s.queries.Add(1)
		if len(fields) < 2 {
			s.errf(w, "TOP needs a count")
			return false
		}
		k, err := strconv.Atoi(fields[1])
		if err != nil || k < 1 {
			s.errf(w, "bad count %q", fields[1])
			return false
		}
		tbl, err := s.backend.GroupBy(parseDims(fields[2:])...)
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		top := tbl.Top(k)
		s.cells.Add(int64(len(top)))
		fmt.Fprintf(w, "OK %d\n", len(top))
		for _, c := range top {
			fmt.Fprintf(w, "%s %g\n", joinCoords(c.Coords), c.Value)
		}
		fmt.Fprintln(w, ".")
	case "DELTA":
		return s.handleDelta(conn, r, w, fields[1:])
	case "DELTABATCH":
		return s.handleDeltaBatch(conn, r, w, fields[1:])
	case "CKPTEXPORT":
		cb, ok := s.backend.(CheckpointBackend)
		if !ok {
			s.errf(w, "backend has no checkpoint store")
			return false
		}
		lsn, state, err := cb.ExportCheckpoint()
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		fmt.Fprintf(w, "OK lsn=%d bytes=%d\n", lsn, len(state))
		if _, err := w.Write(state); err != nil {
			return true
		}
	case "SHIPCKPT":
		return s.handleShipCkpt(conn, r, w, fields[1:])
	case "JOIN", "DRAIN", "REBALANCE":
		s.mu.Lock()
		ec := s.elastic
		s.mu.Unlock()
		if ec == nil {
			s.errf(w, "no elastic controller (not a coordinator)")
			return false
		}
		if len(fields) != 2 {
			s.errf(w, "%s needs one argument", cmd)
			return false
		}
		switch cmd {
		case "JOIN":
			if err := ec.Join(fields[1]); err != nil {
				s.errf(w, "%v", err)
				return false
			}
			fmt.Fprintf(w, "OK joined=%s\n", fields[1])
		case "DRAIN":
			if err := ec.Drain(fields[1]); err != nil {
				s.errf(w, "%v", err)
				return false
			}
			fmt.Fprintf(w, "OK drained=%s\n", fields[1])
		case "REBALANCE":
			nodes, err := strconv.Atoi(fields[1])
			if err != nil || nodes < 1 {
				s.errf(w, "bad node count %q", fields[1])
				return false
			}
			moves, err := ec.Rebalance(nodes)
			if err != nil {
				s.errf(w, "%v", err)
				return false
			}
			fmt.Fprintf(w, "OK moves=%d\n", moves)
		}
	case "DELTASINCE":
		wb, ok := s.backend.(WALTailBackend)
		if !ok {
			s.errf(w, "backend has no durable log")
			return false
		}
		if len(fields) != 2 {
			s.errf(w, "DELTASINCE needs an LSN")
			return false
		}
		after, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			s.errf(w, "bad LSN %q", fields[1])
			return false
		}
		recs, err := wb.DeltasSince(after)
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		total := 0
		for _, rec := range recs {
			total += len(rec.Rows)
		}
		s.cells.Add(int64(total))
		fmt.Fprintf(w, "OK %d\n", total)
		for _, rec := range recs {
			for _, row := range rec.Rows {
				fmt.Fprintf(w, "%d %s %g\n", rec.LSN, joinCoords(row.Coords), row.Value)
			}
		}
		fmt.Fprintln(w, ".")
	case "TRUNCATE":
		tb, ok := s.backend.(TruncateBackend)
		if !ok {
			s.errf(w, "backend has no durable log")
			return false
		}
		if len(fields) != 2 {
			s.errf(w, "TRUNCATE needs an LSN")
			return false
		}
		to, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			s.errf(w, "bad LSN %q", fields[1])
			return false
		}
		last, err := tb.TruncateTail(to)
		if err != nil {
			s.errf(w, "%v", err)
			return false
		}
		fmt.Fprintf(w, "OK lsn=%d\n", last)
	default:
		s.errf(w, "unknown command %q", cmd)
	}
	return false
}

// readRows reads one record's cell lines from a DELTA or DELTABATCH
// payload, re-arming conn's read deadline per line. An error is answered
// and the connection closed: the rest of the payload can no longer be
// told from commands.
func (s *Server) readRows(conn net.Conn, r *bufio.Reader, cells int) ([]Row, error) {
	rows := make([]Row, 0, min(cells, maxRowPrealloc))
	for len(rows) < cells {
		s.armRead(conn)
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("reading delta rows: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed delta row %q (record declared %d cells, got %d)", line, cells, len(rows))
		}
		coords, err := parseDeltaCoords(fields[0])
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad delta value %q", fields[1])
		}
		rows = append(rows, Row{Coords: coords, Value: v})
	}
	return rows, nil
}

// handleDelta reads a DELTA payload: a batch of one record whose header
// rode on the command line. Malformed input closes the connection (the
// payload length is no longer knowable), so buffered upload lines are
// never re-parsed as commands.
func (s *Server) handleDelta(conn net.Conn, r *bufio.Reader, w *bufio.Writer, args []string) bool {
	if len(args) < 1 || len(args) > 2 {
		s.errf(w, "DELTA needs a cell count and an optional LSN")
		return true
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > maxDeltaCells {
		s.errf(w, "bad cell count %q (1..%d)", args[0], maxDeltaCells)
		return true
	}
	var lsn uint64
	if len(args) == 2 {
		if lsn, err = strconv.ParseUint(args[1], 10, 64); err != nil || lsn == 0 {
			s.errf(w, "bad LSN %q", args[1])
			return true
		}
	}
	rows, err := s.readRows(conn, r, n)
	if err != nil {
		s.errf(w, "%v", err)
		return true
	}
	return s.ingest(conn, r, w, "DELTA", []LoggedDelta{{LSN: lsn, Rows: rows}})
}

// maxBatchRecords bounds one DELTABATCH's declared record count; like
// maxDeltaCells it rejects untrusted wire input before any allocation.
const maxBatchRecords = 4096

// maxShipBytes bounds a SHIPCKPT payload. The declared size is
// untrusted wire input; the bound rejects it before allocation
// (cubelint untrusted-alloc), and mirrors what one node's block
// sub-cube can plausibly checkpoint to.
const maxShipBytes = int64(1) << 30 // 1 GiB

// handleShipCkpt reads a SHIPCKPT transfer — header "SHIPCKPT <lsn>
// <bytes>" then exactly <bytes> raw checkpoint-state bytes — and hands
// it to the checkpoint backend. Any payload short-read closes the
// connection: the stream position is unknowable after it.
//
//cubelint:ignore hot-fmt SHIPCKPT runs once per migration, not per query; the OK reply is the line protocol's wire format
func (s *Server) handleShipCkpt(conn net.Conn, r *bufio.Reader, w *bufio.Writer, args []string) bool {
	if r == nil {
		s.errf(w, "SHIPCKPT needs a streaming connection")
		return false
	}
	if len(args) != 2 {
		s.errf(w, "SHIPCKPT needs an LSN and a byte count")
		return true
	}
	lsn, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		s.errf(w, "bad LSN %q", args[0])
		return true
	}
	n, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil || n < 0 || n > maxShipBytes {
		s.errf(w, "bad byte count %q (0..%d)", args[1], maxShipBytes)
		return true
	}
	state := make([]byte, n)
	s.armRead(conn)
	if _, err := io.ReadFull(r, state); err != nil {
		return true
	}
	cb, ok := s.backend.(CheckpointBackend)
	if !ok {
		s.errf(w, "backend has no checkpoint store")
		return false
	}
	if err := cb.ImportCheckpoint(lsn, state); err != nil {
		s.errf(w, "%v", err)
		return false
	}
	fmt.Fprintf(w, "OK lsn=%d\n", lsn)
	return false
}

// handleDeltaBatch reads a DELTABATCH payload — per record a
// "<cells> <lsn>" header line then its cell lines, closed by "." — and
// hands the whole run to the backend in one call, so a durable node
// logs it under a single write and sync. Malformed input closes the
// connection (the payload length is no longer knowable); clean backend
// rejections answer ERR with the stream in sync.
func (s *Server) handleDeltaBatch(conn net.Conn, r *bufio.Reader, w *bufio.Writer, args []string) bool {
	if len(args) != 1 {
		s.errf(w, "DELTABATCH needs a record count")
		return true
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 || n > maxBatchRecords {
		s.errf(w, "bad record count %q (1..%d)", args[0], maxBatchRecords)
		return true
	}
	recs := make([]LoggedDelta, 0, min(n, maxRowPrealloc))
	room := maxDeltaCells // cells the batch may still hold
	for len(recs) < n {
		rec, err := s.readRecord(conn, r, room)
		if err != nil {
			s.errf(w, "%v", err)
			return true
		}
		room -= len(rec.Rows)
		recs = append(recs, rec)
	}
	return s.ingest(conn, r, w, "DELTABATCH", recs)
}

// readRecord reads one DELTABATCH record: its "<cells> <lsn>" header
// line, then its cell lines. room is how many cells the batch may still
// hold.
func (s *Server) readRecord(conn net.Conn, r *bufio.Reader, room int) (LoggedDelta, error) {
	line := ""
	for line == "" {
		s.armRead(conn)
		next, err := r.ReadString('\n')
		if err != nil {
			return LoggedDelta{}, fmt.Errorf("reading batch record header: %w", err)
		}
		line = strings.TrimSpace(next)
	}
	header := strings.Fields(line)
	if len(header) != 2 {
		return LoggedDelta{}, fmt.Errorf("malformed batch record header %q (want \"<cells> <lsn>\")", line)
	}
	cells, err := strconv.Atoi(header[0])
	if err != nil || cells < 1 || cells > maxDeltaCells {
		return LoggedDelta{}, fmt.Errorf("bad batch cell count %q (1..%d)", header[0], maxDeltaCells)
	}
	if cells > room {
		return LoggedDelta{}, fmt.Errorf("batch exceeds %d total cells", maxDeltaCells)
	}
	lsn, err := strconv.ParseUint(header[1], 10, 64)
	if err != nil {
		return LoggedDelta{}, fmt.Errorf("bad batch record LSN %q", header[1])
	}
	rows, err := s.readRows(conn, r, cells)
	return LoggedDelta{LSN: lsn, Rows: rows}, err
}

// ingest finishes a DELTA or DELTABATCH exchange: it consumes the
// payload's "." terminator, applies the parsed run, and answers
// "OK lsn=<n> applied=<k>" once every applied record is durable.
//
//cubelint:ignore hot-fmt the ingest acknowledgement is the line protocol's wire format by design
func (s *Server) ingest(conn net.Conn, r *bufio.Reader, w *bufio.Writer, cmd string, recs []LoggedDelta) bool {
	s.armRead(conn)
	dot, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(dot) != "." {
		s.errf(w, "%s payload not terminated with '.'", cmd)
		return true
	}
	lastLSN, applied, err := s.applyRun(recs)
	if err != nil {
		s.errf(w, "%v", err)
		return false
	}
	cells := 0
	for _, rec := range recs {
		cells += len(rec.Rows)
	}
	s.cells.Add(int64(cells))
	fmt.Fprintf(w, "OK lsn=%d applied=%d\n", lastLSN, applied)
	return false
}

// applyRun applies a parsed run: natively on DeltaBatchBackend
// implementations, by a record-at-a-time loop otherwise (read-only
// backends reject the first record). The loop preserves the batch
// contract — stop at the first rejection, report the applied count —
// just without the single-sync amortization.
func (s *Server) applyRun(recs []LoggedDelta) (lastLSN uint64, applied int, err error) {
	if bb, ok := s.backend.(DeltaBatchBackend); ok {
		return bb.DeltaBatch(recs)
	}
	db, ok := s.backend.(DeltaBackend)
	if !ok {
		return 0, 0, fmt.Errorf("backend is read-only")
	}
	for i, rec := range recs {
		lsn, ok, err := db.Delta(rec.Rows, rec.LSN)
		if err != nil {
			return lastLSN, applied, fmt.Errorf("batch record %d: %w", i, err)
		}
		lastLSN = max(lastLSN, lsn)
		if ok {
			applied++
		}
	}
	return lastLSN, applied, nil
}

// parseDeltaCoords parses a delta row's coordinate list. Unlike
// parseCoords the expected rank is not known at the protocol layer; the
// backend validates it against the schema.
func parseDeltaCoords(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad delta coordinate %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// value answers a single-cell lookup, through the backend's Value fast
// path when it has one. The names and coordinates are put into schema
// order first, the order tables are indexed in.
func (s *Server) value(dims []string, coords []int) (float64, error) {
	names, _ := s.backend.SchemaDims()
	dims, coords = SchemaOrder(names, dims, coords)
	if vb, ok := s.backend.(ValueBackend); ok {
		return vb.Value(dims, coords)
	}
	tbl, err := s.backend.GroupBy(dims...)
	if err != nil {
		return 0, err
	}
	return Lookup(tbl, coords)
}

// SchemaOrder returns dims and coords permuted into the order of names,
// the schema order every group-by table is indexed in, so "VALUE b,a y,x"
// reads the cell "VALUE a,b x,y" does. Input already in schema order
// comes back as it is, without allocating; input naming an unknown or
// repeated dimension, or pairing names and coordinates unevenly, also
// comes back unchanged, for the backend to reject.
func SchemaOrder(names, dims []string, coords []int) ([]string, []int) {
	if len(dims) != len(coords) {
		return dims, coords
	}
	prev, ordered := -1, true
	for _, d := range dims {
		i := slices.Index(names, d)
		if i < 0 {
			return dims, coords
		}
		ordered = ordered && i > prev
		prev = i
	}
	if ordered {
		return dims, coords
	}
	outDims := make([]string, 0, len(dims))
	outCoords := make([]int, 0, len(coords))
	for _, n := range names {
		if k := slices.Index(dims, n); k >= 0 {
			outDims = append(outDims, n)
			outCoords = append(outCoords, coords[k])
		}
	}
	if len(outDims) != len(dims) {
		return dims, coords
	}
	return outDims, outCoords
}

// writeTable streams a full group-by.
//
//cubelint:ignore hot-fmt table rows are the line protocol's text wire format by design
func (s *Server) writeTable(w *bufio.Writer, tbl Result) {
	s.cells.Add(int64(tbl.Size()))
	fmt.Fprintf(w, "OK %d\n", tbl.Size())
	shape := tbl.Shape()
	coords := make([]int, len(shape))
	for {
		v := tbl.At(coords...)
		fmt.Fprintf(w, "%s %g\n", joinCoords(coords), v)
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
	fmt.Fprintln(w, ".")
}

// parseDims splits "a,b,c" argument lists; an empty list is the grand
// total.
func parseDims(fields []string) []string {
	if len(fields) == 0 {
		return nil
	}
	joined := strings.Join(fields, "")
	if joined == "" || joined == "-" {
		return nil
	}
	out := make([]string, 0, strings.Count(joined, ",")+1)
	for _, d := range strings.Split(joined, ",") {
		d = strings.TrimSpace(d)
		if d != "" {
			out = append(out, d)
		}
	}
	return out
}

// parseCoords parses "3,1,4" into n integers.
func parseCoords(s string, n int) ([]int, error) {
	if n == 0 {
		if strings.TrimSpace(s) != "" {
			return nil, fmt.Errorf("grand total takes no coordinates")
		}
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("%d coordinates for %d dimensions", len(parts), n)
	}
	out := make([]int, n)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// joinCoords renders coordinates as "3,1,4" ("-" for the grand total).
func joinCoords(coords []int) string {
	if len(coords) == 0 {
		return "-"
	}
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}
