package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A request's blocking path is client > qcache > coord: the
// client span is send to reply as the load generator sees it, the qcache
// span is the server's call into the cache, the coord span is the cache's
// call into the coordinator (present only on a miss). Everything else is
// a stand-alone span of a probe or a tail step.
const (
	spanClient = "client"
	spanQcache = "qcache"
	spanCoord  = "coord"
	spanDelta  = "coord.delta"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent is 0 for a root; the spans of one request
// share Req, the id of its client span. Key is the statement index for
// request spans (-1 otherwise) and is what ties a decorator's span to
// the client request that caused it, since nothing crosses the TCP hop.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    int32  `json:"key"`
	Phase  string `json:"phase,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// rawSpan is a span as recorded: 24 bytes, so a run of a few hundred
// thousand requests does not grow the heap the system under test shares.
type rawSpan struct {
	start, end  int64
	key         int32
	name, phase uint8 // indices into tracer.names
}

// tracer keeps spans in memory; nothing is written until the run ends. A
// nil tracer records nothing, so untraced runs carry no tracing cost
// beyond a nil check at the harness's own call sites.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	raw   []rawSpan
	names []string // span and phase names, by first use
	phase uint8
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), raw: make([]rawSpan, 0, 1<<16), names: []string{""}}
	t.on.Store(true)
	return t
}

// enable switches recording; the decorators stay installed either way, so
// the traced run can time the same stack with recording off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// nameLocked returns the index of name in t.names, adding it if new.
func (t *tracer) nameLocked(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

func (t *tracer) setPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = t.nameLocked(p)
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, key int32, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.raw = append(t.raw, rawSpan{
		start: start.Sub(t.t0).Nanoseconds(), end: end.Sub(t.t0).Nanoseconds(),
		key: key, name: t.nameLocked(name), phase: t.phase,
	})
	t.mu.Unlock()
}

// snapshot returns the recorded spans with request spans linked.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]span, len(t.raw))
	for i, r := range t.raw {
		spans[i] = span{
			ID: int64(i + 1), Name: t.names[r.name], Phase: t.names[r.phase],
			Start: r.start, End: r.end, Key: r.key,
		}
	}
	t.mu.Unlock()
	linkRequests(spans)
	return spans
}

// linkRequests sets Parent and Req on request spans: a qcache span
// belongs to the unclaimed client span of the same statement that
// encloses it, a coord span to the enclosing qcache span likewise. Two
// clients asking the same statement at once are interchangeable, so
// whichever encloses is a correct parent.
func linkRequests(spans []span) {
	byKey := func(name string) map[int32][]int {
		m := make(map[int32][]int)
		for i, s := range spans {
			if s.Name == name && s.Key >= 0 {
				m[s.Key] = append(m[s.Key], i)
			}
		}
		for _, idx := range m {
			sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
		}
		return m
	}
	adopt := func(parentName, childName string) {
		parents, children := byKey(parentName), byKey(childName)
		for key, kids := range children {
			ps := parents[key]
			claimed := make([]bool, len(ps))
			for _, ci := range kids {
				c := &spans[ci]
				// Of the few parents that started at or before the child
				// and can still be open, the tightest one that encloses it.
				hi := sort.Search(len(ps), func(i int) bool { return spans[ps[i]].Start > c.Start })
				best := -1
				for j := hi - 1; j >= 0 && j >= hi-8; j-- {
					if p := &spans[ps[j]]; !claimed[j] && p.End >= c.End && (best < 0 || p.End < spans[ps[best]].End) {
						best = j
					}
				}
				if best < 0 {
					continue
				}
				claimed[best] = true
				p := &spans[ps[best]]
				c.Parent, c.Req = p.ID, p.Req
				if c.Req == 0 {
					c.Req = p.ID
				}
			}
		}
	}
	for i := range spans {
		if spans[i].Name == spanClient {
			spans[i].Req = spans[i].ID
		}
	}
	adopt(spanClient, spanQcache)
	adopt(spanQcache, spanCoord)
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover. Children are clipped to the parent and their
// overlaps with each other counted once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceFileSpans caps the request spans one trace file holds; the metrics
// are computed from every span, the file is for reading.
const traceFileSpans = 20000

type traceFile struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Total     int    `json:"spans_recorded"`
	Truncated bool   `json:"truncated"`
	Spans     []span `json:"spans"`
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	// Stand-alone spans (build pairs, tail steps) are few and all kept;
	// request spans are kept from the start of the run up to the cap.
	tf := traceFile{Workload: workload, Seed: seed, Total: len(spans)}
	requests := 0
	for _, s := range spans {
		if s.Key >= 0 {
			if requests++; requests > traceFileSpans {
				tf.Truncated = true
				continue
			}
		}
		tf.Spans = append(tf.Spans, s)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		_ = f.Close() // the encode error is the one to report
		return "", err
	}
	return path, f.Close()
}
