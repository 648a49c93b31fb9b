package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"parcube"
	"parcube/internal/agg"
	"parcube/internal/array"
	"parcube/internal/cluster"
	"parcube/internal/comm"
	"parcube/internal/mux"
	"parcube/internal/nd"
	"parcube/internal/parallel"
	"parcube/internal/server"
	"parcube/internal/theory"
	"parcube/internal/wal"
)

// Stand-alone probes: each times one layer's public function on the
// workload's own inputs, outside the measured phases of the run. They
// feed the per-layer metrics of the traced run only.

// probeReps is how often a probe repeats what it times; the probe
// reports the median.
const probeReps = 9

// timeMedian runs fn probeReps times and returns the median duration.
func timeMedian(fn func() error) (time.Duration, error) {
	d := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(t)))
	}
	return time.Duration(median(d)), nil
}

type kernelProbe struct {
	scanSparseNsPerUpdate float64
	scanDenseNsPerUpdate  float64
	combineAtNsPerElem    float64
	scanBytesPerUpdate    float64 // computed from array sizes, not measured
}

// firstLevelTargets allocates one child per axis of shape, the fan-out
// of the aggregation tree's root.
func firstLevelTargets(shape nd.Shape) []array.Target {
	targets := make([]array.Target, shape.Rank())
	for axis := range targets {
		keep := make([]int, 0, shape.Rank()-1)
		for d := 0; d < shape.Rank(); d++ {
			if d != axis {
				keep = append(keep, shape[d])
			}
		}
		targets[axis] = array.Target{Child: array.NewDense(nd.MustShape(keep...), agg.Sum), DropAxis: axis}
	}
	return targets
}

// probeKernels times the scan kernels on the workload's input: the
// sparse first-level scan the engines start with, the dense scan of its
// largest child, and the slab-assembly kernel on that child.
func probeKernels(input *array.Sparse) (kernelProbe, error) {
	var k kernelProbe
	shape := input.Shape()
	targets := firstLevelTargets(shape)
	var updates int64
	d, err := timeMedian(func() error {
		updates = array.ScanSparse(input, targets, agg.Sum, agg.FoldInput)
		return nil
	})
	if err != nil || updates == 0 {
		return k, fmt.Errorf("sparse scan: %d updates, %v", updates, err)
	}
	k.scanSparseNsPerUpdate = float64(d.Nanoseconds()) / float64(updates)
	// One pass reads every stored entry (offset + value, 12 bytes) and
	// read-modify-writes one 8-byte accumulator per update.
	k.scanBytesPerUpdate = (float64(input.Bytes()) + 16*float64(updates)) / float64(updates)

	parent := targets[len(targets)-1].Child // drops the smallest axis: the largest child
	sub := firstLevelTargets(parent.Shape())
	d, err = timeMedian(func() error {
		updates = array.Scan(parent, sub, agg.Sum, agg.FoldPartial)
		return nil
	})
	if err != nil || updates == 0 {
		return k, fmt.Errorf("dense scan: %d updates, %v", updates, err)
	}
	k.scanDenseNsPerUpdate = float64(d.Nanoseconds()) / float64(updates)

	dst := array.NewDense(parent.Shape(), agg.Sum)
	lo := make([]int, parent.Rank())
	d, err = timeMedian(func() error {
		dst.CombineAt(parent, lo, agg.Sum)
		return nil
	})
	if err != nil {
		return k, err
	}
	k.combineAtNsPerElem = float64(d.Nanoseconds()) / float64(parent.Size())
	return k, nil
}

// probeReduce times one binomial comm.Reduce of elems elements across 8
// peers on the in-process channel fabric, in microseconds.
func probeReduce(elems int) (float64, error) {
	const peers = buildProcessors
	group := make([]int, peers)
	for i := range group {
		group[i] = i
	}
	d, err := timeMedian(func() error {
		fabric, err := comm.NewChanFabric(peers)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, peers)
		for r := 0; r < peers; r++ {
			ep, err := fabric.Endpoint(r)
			if err != nil {
				return errors.Join(err, fabric.Close())
			}
			wg.Add(1)
			go func(r int, ep comm.Endpoint) {
				defer wg.Done()
				errs[r] = comm.Reduce(comm.EndpointPeer{Ep: ep}, group, r, make([]float64, elems), agg.Sum, 1, comm.Binomial)
			}(r, ep)
		}
		wg.Wait()
		return errors.Join(append(errs, fabric.Close())...)
	})
	return float64(d.Nanoseconds()) / 1e3, err
}

// probeGreedy times the Theorem 8 greedy partitioner, in microseconds.
func probeGreedy(sizes []int) (float64, error) {
	shape := nd.MustShape(sizes...)
	d, err := timeMedian(func() error {
		_, err := theory.GreedyPartition(shape, 3)
		return err
	})
	return float64(d.Nanoseconds()) / 1e3, err
}

// probePartitionInput times splitting the input over the processor grid
// of the given partition, in milliseconds.
func probePartitionInput(input *array.Sparse, k []int) (float64, error) {
	grid, err := cluster.NewGrid(theory.PartsOf(k))
	if err != nil {
		return 0, err
	}
	d, err := timeMedian(func() error {
		_, _, err := parallel.PartitionInput(input, grid)
		return err
	})
	return float64(d.Nanoseconds()) / 1e6, err
}

type muxProbe struct {
	frameCodecNs float64
	roundtripUs  float64
}

// closedLoopMedian sends body iters times on every session at once, one
// request in flight per session as in the closed-loop phase, and returns
// the median latency in microseconds. A lone client would pay a wake-up
// of the idle runtime on every request that the busy run does not.
func closedLoopMedian(sessions []*mux.Session, body []byte, iters int) (float64, error) {
	per := make([][]float64, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *mux.Session) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				t := time.Now()
				if _, err := sess.Do(body); err != nil {
					errs[i] = err
					return
				}
				per[i] = append(per[i], float64(time.Since(t).Nanoseconds())/1e3)
			}
		}(i, sess)
	}
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return median(all), errors.Join(errs...)
}

// serveNoop accepts conns connections on ln and answers every mux
// request on them with "OK"; it returns when all of them have closed.
func serveNoop(ln net.Listener, conns int) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for i := 0; i < conns; i++ {
		conn, err := ln.Accept()
		if err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			if err := conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
				errs[i] = errors.Join(err, conn.Close())
				return
			}
			r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
			line, err := r.ReadString('\n')
			if err != nil {
				errs[i] = errors.Join(err, conn.Close())
				return
			}
			window, _ := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "MUX ")))
			// Serve returns once the client has gone; its error is the
			// disconnect, not a failure of the probe.
			_ = mux.Serve(conn, r, w, window, func([]byte) ([]byte, bool) { return []byte("OK\n"), false },
				mux.ServeOptions{ReadTimeout: requestTimeout, WriteTimeout: requestTimeout})
			errs[i] = conn.Close()
		}(i, conn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probeMux times the frame codec on a body of the given size, and
// Session.Do against a mux.Serve handler that does nothing, from clients
// sessions at once: what one request costs in framing, the loopback hop
// and goroutine hand-offs.
func probeMux(bodySize, clients int) (muxProbe, error) {
	var p muxProbe
	body := bytes.Repeat([]byte{'x'}, max(bodySize, 1))
	const codecIters = 2000
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	d, err := timeMedian(func() error {
		for i := 0; i < codecIters; i++ {
			buf.Reset()
			br.Reset(&buf)
			if err := mux.WriteFrame(&buf, "RSP", uint64(i), body); err != nil {
				return err
			}
			if _, _, _, err := mux.ReadFrame(br, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	p.frameCodecNs = float64(d.Nanoseconds()) / codecIters

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	served := make(chan error, 1) // one send, when serveNoop returns
	go func() { served <- serveNoop(ln, clients) }()
	var sessions []*mux.Session
	for i := 0; i < clients && err == nil; i++ {
		var sess *mux.Session
		if sess, err = mux.Dial(ln.Addr().String(), mux.Options{RequestTimeout: requestTimeout, DialTimeout: dialTimeout}); err == nil {
			sessions = append(sessions, sess)
		}
	}
	if err == nil {
		p.roundtripUs, err = closedLoopMedian(sessions, []byte("QUERY x\n"), 2000)
	}
	errs := []error{err}
	for _, sess := range sessions {
		errs = append(errs, sess.Close())
	}
	errs = append(errs, ln.Close()) // also ends an Accept still waiting after a failed dial
	<-served
	return p, errors.Join(errs...)
}

// probeWalAppend times wal.Open(FsyncAlways).Append of a payload of the
// given size in a scratch directory on the data dirs' filesystem, in
// microseconds.
func probeWalAppend(dir string, payload int) (us float64, err error) {
	scratch, err := os.MkdirTemp(dir, "walprobe-")
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(scratch)) }()
	log, err := wal.Open(scratch, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return 0, err
	}
	rec := bytes.Repeat([]byte{'7'}, max(payload, 1))
	const appends = 20
	d, err := timeMedian(func() error {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(d.Nanoseconds()) / appends / 1e3, errors.Join(err, log.Close())
}

// probeUpdate times Cube.Update on a block-sized cube (one shard's half
// of the serving data) for a delta of rows rows, in milliseconds.
func probeUpdate(ds *parcube.Dataset, seed int64, rows int) (float64, error) {
	sizes := ds.Schema().Sizes()
	hi := append([]int(nil), sizes...)
	hi[0] /= 2
	block, err := ds.Shard(make([]int, len(sizes)), hi)
	if err != nil {
		return 0, err
	}
	cube, _, err := parcube.Build(block)
	if err != nil {
		return 0, err
	}
	g := newDeltaGen(seed)
	ms := make([]float64, 0, probeReps)
	for rep := 0; rep < probeReps; rep++ {
		delta := parcube.NewDataset(ds.Schema())
		for i := 0; i < rows; i++ {
			r := g.row()
			r.Coords[0] %= hi[0]
			if err := delta.Add(r.Value, r.Coords...); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		if _, err := cube.Update(delta); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// firstOfClass returns the first statement of each class, "" for a
// class the set does not hold.
func firstOfClass(stmts []statement) (pick [numClasses]string) {
	for _, s := range stmts {
		if pick[s.class] == "" {
			pick[s.class] = s.text
		}
	}
	return pick
}

// probeNodes asks every shard node directly, over a plain server.Client,
// for one statement of each class and returns the slowest node's median
// per class in microseconds: the floor under a coordinator span, which
// waits for its slowest block.
func probeNodes(st *stack, stmts []statement) ([numClasses]float64, error) {
	var out [numClasses]float64
	pickByClass := firstOfClass(stmts)
	for _, n := range st.nodes {
		cl, err := server.DialTimeout(n.Addr(), dialTimeout)
		if err != nil {
			return out, err
		}
		cl.SetTimeout(requestTimeout)
		for class, stmt := range pickByClass {
			if stmt == "" {
				continue
			}
			d, err := timeMedian(func() error {
				_, err := cl.Query(stmt)
				return err
			})
			if err != nil {
				return out, errors.Join(fmt.Errorf("node probe %s: %w", n.Addr(), err), cl.Close())
			}
			out[class] = max(out[class], float64(d.Nanoseconds())/1e3)
		}
		if err := cl.Close(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// fixedBackend answers QUERY from tables rendered before the probe
// starts, so a request through it costs the server layer and nothing
// behind it.
type fixedBackend struct {
	names  []string
	sizes  []int
	tables map[string]*parcube.Table
}

func (b *fixedBackend) SchemaDims() ([]string, []int) { return b.names, b.sizes }
func (b *fixedBackend) Total() (float64, error)       { return 0, errors.New("probe backend: QUERY only") }

func (b *fixedBackend) GroupBy(...string) (server.Result, error) {
	return nil, errors.New("probe backend: QUERY only")
}

func (b *fixedBackend) Query(stmt string) (server.Result, error) {
	if t, ok := b.tables[stmt]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("probe backend: unknown statement %q", stmt)
}

// probeServer times one statement of each class, from clients mux
// clients at once, through a server whose backend answers at once: the
// mux round trip plus the server layer's parse, render and frame
// transfer for that reply size, in microseconds.
func probeServer(ref *parcube.Cube, stmts []statement, clients int) (out [numClasses]float64, err error) {
	schema := ref.Schema()
	fb := &fixedBackend{names: schema.Names(), sizes: schema.Sizes(), tables: make(map[string]*parcube.Table)}
	pick := firstOfClass(stmts)
	for _, stmt := range pick {
		if stmt == "" {
			continue
		}
		if fb.tables[stmt], err = ref.Query(stmt); err != nil {
			return out, err
		}
	}
	srv := server.NewBackend(fb)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer func() { err = errors.Join(err, srv.Close()) }()
	var sessions []*mux.Session
	defer func() {
		for _, sess := range sessions {
			err = errors.Join(err, sess.Close())
		}
	}()
	for i := 0; i < clients; i++ {
		sess, err := mux.Dial(addr, mux.Options{RequestTimeout: requestTimeout, DialTimeout: dialTimeout})
		if err != nil {
			return out, err
		}
		sessions = append(sessions, sess)
	}
	for class, stmt := range pick {
		if stmt == "" {
			continue
		}
		if out[class], err = closedLoopMedian(sessions, []byte("QUERY "+stmt+"\n"), 1000); err != nil {
			return out, err
		}
	}
	return out, nil
}
