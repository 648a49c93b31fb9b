package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// workloadNames is the order -all runs them in.
var workloadNames = []string{"build", "serve_hot", "serve_cold", "ingest_mixed"}

// fillOrder is the order a traced run consults the other workloads to
// fill in layers its own workload does not touch: ingest_mixed covers
// every serving layer but the open loop, so two canaries always suffice.
var fillOrder = []string{"build", "ingest_mixed", "serve_hot", "serve_cold"}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median and the last set-up is the one the run then uses.
const setupRepeats = 5

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil: untraced
	outDir   string  // trace files and scratch data dirs
	clients  int     // client connections: nproc
	setups   int
	mini     bool // a short canary run inside a traced run: one recovery repeat
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	setupS    float64
	attempted int64
	failed    int64 // failed, refused, overloaded or wrongly answered operations
	wrong     int64 // of those, replies that differed from the reference
	checked   int64 // replies compared with the reference
	ops       int64 // primary operations of the measured phases, for runtime.*
	incorrect []string
	e2e       map[string]float64 // the driver's end-to-end metrics
	detail    map[string]float64 // the workload's own metrics, by the issue's names
	layer     map[string]float64 // per-layer metrics, traced runs only
	notes     []string
	// measuredDone is called by the workload when its measured phases
	// are over: what follows (sorting samples, probes) is the harness's
	// own work and is kept out of mem_peak_mb.
	measuredDone func()
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, detail: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// bad records a correctness failure: the run still reports, with
// correct=false and a non-zero exit.
func (r *result) bad(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

func (r *result) closeErr(err error) {
	if err != nil {
		r.note("teardown: %v", err)
	}
}

func (r *result) correct() bool { return len(r.incorrect) == 0 && r.wrong == 0 }

// timeSetups runs setup cfg.setups times, tearing down after all but the
// last, and returns the median set-up time in seconds.
func timeSetups(cfg runConfig, setup, teardown func() error) (float64, error) {
	secs := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < cfg.setups-1 {
			if err := teardown(); err != nil {
				return 0, fmt.Errorf("tear-down between set-ups: %w", err)
			}
		}
	}
	return median(secs), nil
}

// memSampler tracks, every 100 ms, the peak of the live heap: the bytes
// the last garbage collection found reachable. MemStats.Sys would also
// count garbage not yet collected, which depends on where in its cycle
// the collector happens to be and varies by a quarter between equal runs.
type memSampler struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(live)
			if live[0].Value.Kind() == metrics.KindUint64 {
				m.peak = max(m.peak, live[0].Value.Uint64())
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// halt stops the sampler; it may be called more than once.
func (m *memSampler) halt() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// peakMB stops the sampler and returns the peak in megabytes.
func (m *memSampler) peakMB() float64 {
	m.halt()
	return float64(m.peak) / 1e6
}

// runtimeMark is a snapshot of the process counters runtime.* is the
// difference of.
type runtimeMark struct {
	mallocs uint64
	pauseNs uint64
	cpuSec  float64
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	cpu := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return runtimeMark{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, cpuSec: cpu}
}

func (r *result) runtimeSince(m runtimeMark) {
	now := markRuntime()
	ops := float64(max(r.ops, 1))
	r.layer["runtime.allocs_per_op"] = float64(now.mallocs-m.mallocs) / ops
	r.layer["runtime.gc_pause_total_ms"] = float64(now.pauseNs-m.pauseNs) / 1e6
	r.layer["runtime.cpu_s_per_1k_ops"] = (now.cpuSec - m.cpuSec) / ops * 1e3
}

var runners = map[string]func(runConfig, *result) error{
	"build":        runBuild,
	"serve_hot":    runServe,
	"serve_cold":   runServe,
	"ingest_mixed": runIngest,
}

// runWorkload runs one workload once. The error is for a run that could
// not be completed; a completed run with wrong answers comes back as a
// result that is not correct.
func runWorkload(cfg runConfig) (*result, error) {
	run, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	res := newResult(cfg.workload)
	// With -all and -repeat an earlier run's heap is still counted live
	// until the next collection; start every run from a collected heap.
	runtime.GC()
	mem := startMemSampler()
	res.measuredDone = mem.halt
	mark := markRuntime()
	err := run(cfg, res)
	peak := mem.peakMB()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.e2e["setup_s"] = res.setupS
	res.e2e["mem_peak_mb"] = peak
	// The names the driver's set and the issue's set have in common.
	for _, name := range []string{"setup_s", "mem_peak_mb", "build_comm_elems", "build_peak_elems"} {
		res.detail[name] = res.e2e[name]
	}
	res.detail["fail_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	if cfg.tr != nil {
		res.runtimeSince(mark)
	}
	return res, nil
}

// miniSeconds is the length of the short traced runs that fill in the
// layers a workload does not touch.
const miniSeconds = 1500 * time.Millisecond

// runTraced runs the workload traced, writes its span file, and then
// fills every per-layer metric the workload itself could not produce
// from a short traced run of a workload that exercises the layer: the
// driver wants every per-layer metric on every run, and a layer that did
// no work in this workload has no number of its own to give.
func runTraced(cfg runConfig) (*result, error) {
	cfg.tr = newTracer()
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	path, err := writeTrace(cfg.outDir, cfg.workload, cfg.seed, cfg.tr.snapshot())
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.note("spans written to %s", path)
	for _, other := range fillOrder {
		if other == cfg.workload || !missingLayer(res) {
			continue
		}
		mini := cfg
		mini.workload, mini.seconds, mini.setups, mini.tr, mini.mini = other, miniSeconds, 1, newTracer(), true
		fill, err := runWorkload(mini)
		if err != nil {
			return nil, fmt.Errorf("filling layers from %s: %w", other, err)
		}
		if !fill.correct() {
			res.bad("canary run of %s was not correct: %v", other, fill.incorrect)
		}
		filled := 0
		for name, v := range fill.layer {
			if _, have := res.layer[name]; !have {
				res.layer[name] = v
				filled++
			}
		}
		res.note("%d per-layer metrics come from a %.1fs canary run of %s", filled, miniSeconds.Seconds(), other)
	}
	return res, nil
}

func missingLayer(res *result) bool {
	for _, m := range perLayerMetrics {
		if _, ok := res.layer[m.Name]; !ok {
			return true
		}
	}
	return false
}
