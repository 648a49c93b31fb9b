package main

import (
	"fmt"
	"sort"
)

// serveSpec is what separates serve_hot from serve_cold: the size of the
// statement set against the cache's 256 entries, and how requests are
// drawn from it. The stack and the three statement templates are shared.
type serveSpec struct {
	statements int
	zipfS      float64 // > 1: Zipf(s) popularity; otherwise uniform
}

var serveSpecs = map[string]serveSpec{
	"serve_hot":  {statements: 96, zipfS: 1.2},
	"serve_cold": {statements: 2048},
}

// openLoopRate is the frozen arrival rate of the open-loop phase, in
// requests per second: about a third (serve_hot) and a quarter
// (serve_cold) of the closed-loop query_qps measured at the commit that
// added this benchmark. Half, as the issue proposed, sits on the knee
// here: timers fire about a millisecond late, so arrivals come in bunches,
// and a bunch of uncached group-bys makes the coordinator dial extra
// shard connections. It is a constant, never derived at run time, so the
// open loop offers the same load to every later commit.
var openLoopRate = map[string]float64{
	"serve_hot":  8000,
	"serve_cold": 1200,
}

// openWindows is the number of windows the open-loop phase is cut into;
// query_p99_us is the median of the windows' p99s.
const openWindows = 6

// runServe stands up two in-memory shard nodes behind a cached
// coordinator and drives QUERY statements over mux: a closed loop for
// throughput and median latency, then an open loop at the frozen rate
// for the tail.
func runServe(cfg runConfig, res *result) error {
	spec := serveSpecs[cfg.workload]
	stmts := genStatements(cfg.seed, spec.statements)
	load := newQueryLoad(stmts, nil, cfg.tr)

	var st *stack
	setup, err := timeSetups(cfg,
		func() (err error) {
			st, err = startStack(cfg.seed, stackSpec{tr: cfg.tr, keys: load.keys()}, cfg.clients)
			return err
		},
		func() error { return st.close() })
	if err != nil {
		return err
	}
	defer func() { res.closeErr(st.close()) }()
	res.setupS = setup
	load.ref = st.ref

	pick := make([]picker, cfg.clients)
	for i := range pick {
		pick[i] = newPicker(cfg.seed, i, len(stmts), spec.zipfS)
	}
	warm, closedD, openD := cfg.seconds/10, cfg.seconds*4/10, cfg.seconds/2

	// The traced run first times the same stack with recording switched
	// off, to report what recording costs.
	untracedP50 := 0.0
	if cfg.tr != nil {
		cfg.tr.enable(false)
		off, _ := load.closedLoop(st.clients, pick, warm, closedD/4)
		untracedP50 = percentile(sortedCopy(lats(off, func(s sample) float32 { return s.lat })), 0.5)
		cfg.tr.enable(true)
		warm, closedD = 0, closedD*3/4
	}

	cfg.tr.setPhase("closed")
	closed, elapsed := load.closedLoop(st.clients, pick, warm, closedD)
	if len(closed) == 0 {
		return fmt.Errorf("closed loop completed no request: %v", load.firstErr.Load())
	}
	cfg.tr.setPhase("open")
	rate := openLoopRate[cfg.workload]
	open := load.openLoop(st.clients, newPicker(cfg.seed, 99, len(stmts), spec.zipfS), rate, openD)
	if len(open) == 0 {
		return fmt.Errorf("open loop completed no request: %v", load.firstErr.Load())
	}
	cfg.tr.setPhase("")
	res.measuredDone()

	res.attempted = load.attempted.Load()
	res.failed = load.failed.Load() + load.wrong.Load()
	res.wrong = load.wrong.Load()
	res.checked = load.checked.Load()
	if e := load.firstErr.Load(); e != nil {
		res.note("first failure: %v", e)
	}

	closedLat := sortedCopy(lats(closed, func(s sample) float32 { return s.lat }))
	openTimed := make([]timed, len(open))
	for i, s := range open {
		openTimed[i] = timed{at: float64(s.at), value: float64(s.lat)}
	}
	qps := float64(len(closed)) / elapsed
	p50 := percentile(closedLat, 0.5)
	p99 := windowedQuantile(openTimed, openD.Seconds(), openWindows, 0.99)
	openP50 := percentile(sortedCopy(lats(open, func(s sample) float32 { return s.lat })), 0.5)

	res.detail["query_qps"] = qps
	res.detail["query_p50_us"] = p50
	res.detail["query_p99_us"] = p99

	res.e2e["ops_per_s"] = qps
	res.e2e["op_p50_ms"] = p50 / 1e3
	res.e2e["op_tail_ms"] = p99 / 1e3
	res.e2e["alt_p50_ms"] = openP50 / 1e3
	res.e2e["build_comm_elems"] = float64(st.refRep.CommElements)
	res.e2e["build_peak_elems"] = float64(st.refRep.MaxPeakMemoryElements)
	res.ops = int64(len(closed) + len(open))

	if cfg.tr != nil {
		if err := serveLayerMetrics(cfg, st, load, cfg.tr.snapshot(), closed, open, res); err != nil {
			return err
		}
		if untracedP50 > 0 {
			res.layer["client.trace_overhead_pct"] = (p50 - untracedP50) / untracedP50 * 100
		}
	}
	return nil
}

// serveLayerMetrics derives the serving layers' numbers from the spans
// of the closed-loop phase, the layers' own registries, and the probes.
func serveLayerMetrics(cfg runConfig, st *stack, load *queryLoad, spans []span, closed, open []sample, res *result) error {
	sizes := make([]float64, len(closed))
	for i, s := range closed {
		sizes[i] = float64(s.size)
	}
	respP50 := percentile(sortedCopy(sizes), 0.5)
	mp, err := probeMux(int(respP50), cfg.clients)
	if err != nil {
		return fmt.Errorf("mux probe: %w", err)
	}
	nodeUs, err := probeNodes(st, load.stmts)
	if err != nil {
		return err
	}
	L := res.layer
	L["mux.frame_codec_ns"] = mp.frameCodecNs
	L["mux.roundtrip_us"] = mp.roundtripUs
	L["mux.overloads"] = float64(st.srv.Metrics().Flatten()["mux.overloads"])
	L["server.resp_bytes_p50"] = respP50

	// Per request of the closed phase: client span, its qcache child and,
	// on a miss, the coord grandchild.
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := selfTimes(spans)
	var clientUs, backendUs, serverSelf, coordByClass [numClasses][]float64
	var hitSelf, missSelf, coordSpan []float64
	for i := range spans {
		s := &spans[i]
		if s.Phase != "closed" {
			continue
		}
		switch s.Name {
		case spanQcache:
			if s.Parent == 0 {
				continue
			}
			class := load.stmts[s.Key].class
			client := byID[s.Parent]
			clientUs[class] = append(clientUs[class], float64(client.dur())/1e3)
			backendUs[class] = append(backendUs[class], float64(s.dur())/1e3)
			// What is left of the client's wait after the backend call
			// and the bare mux round trip is the server layer: request
			// parse, reply rendering and moving the larger frame.
			serverSelf[class] = append(serverSelf[class], float64(self[client.ID])/1e3-mp.roundtripUs)
			if self[s.ID] == s.dur() {
				hitSelf = append(hitSelf, float64(s.dur())/1e3)
			} else {
				missSelf = append(missSelf, float64(self[s.ID])/1e3)
			}
		case spanCoord:
			coordSpan = append(coordSpan, float64(s.dur())/1e3)
			if s.Key >= 0 {
				class := load.stmts[s.Key].class
				coordByClass[class] = append(coordByClass[class], float64(s.dur())/1e3)
			}
		}
	}
	// A metric without a sample (no miss in the whole closed phase of
	// serve_hot, say) is left out, and a canary run supplies it.
	setMedian := func(name string, v []float64) {
		if len(v) > 0 {
			L[name] = median(v)
		}
	}
	for class, name := range [numClasses]string{"server.self_us_16c", "server.self_us_256c", "server.self_us_1024c"} {
		setMedian(name, serverSelf[class])
	}
	setMedian("qcache.self_us_hit", hitSelf)
	setMedian("qcache.self_us_miss", missSelf)
	// A coordinator span waits for its slowest block, then merges: what
	// exceeds the slowest node's own answer time is scatter and merge.
	var mergeSelf []float64
	for class := range coordByClass {
		if len(coordByClass[class]) > 0 {
			mergeSelf = append(mergeSelf, median(coordByClass[class])-nodeUs[class])
		}
	}
	if len(coordSpan) > 0 {
		sort.Float64s(coordSpan)
		L["shard.coord_span_us_p50"] = percentile(coordSpan, 0.5)
		L["shard.coord_span_us_p99"] = percentile(coordSpan, 0.99)
		L["shard.merge_self_us"] = mean(mergeSelf)
	}
	L["shard.node_probe_us"] = mean(nodeUs[:])

	// The check on the decomposition: per class, the bare mux round trip
	// plus the server layer timed on its own (same reply, a backend that
	// answers at once) plus the median backend span should add up to the
	// median the client saw. The classes are weighted by their requests.
	serverUs, err := probeServer(st.ref, load.stmts, cfg.clients)
	if err != nil {
		return err
	}
	cover, weight := 0.0, 0.0
	for class := range clientUs {
		if n := float64(len(clientUs[class])); n > 0 {
			cover += n * (serverUs[class] + median(backendUs[class])) / median(clientUs[class])
			weight += n
		}
	}
	if weight > 0 {
		L["client.path_cover"] = cover / weight
	}

	flat := st.cache.Metrics().Flatten()
	if total := flat["qcache.hits"] + flat["qcache.misses"]; total > 0 {
		L["qcache.hit_ratio"] = float64(flat["qcache.hits"]) / float64(total)
	}
	L["qcache.evictions"] = float64(flat["qcache.evictions"])
	L["qcache.invalidations"] = float64(flat["qcache.invalidations"])
	cs := st.coord.Stats()
	L["shard.asks"] = float64(cs.Fanouts)
	L["shard.retries"] = float64(cs.Retries)
	L["shard.failovers"] = float64(cs.Failovers)
	L["shard.hedges_fired"] = float64(cs.HedgesFired)

	if len(open) > 0 { // ingest_mixed has no open loop
		L["client.gen_late_p99_us"] = percentile(sortedCopy(lats(open, func(s sample) float32 { return s.late })), 0.99)
		L["client.service_p99_us"] = percentile(sortedCopy(lats(open, func(s sample) float32 { return s.svc })), 0.99)
	}
	return nil
}
