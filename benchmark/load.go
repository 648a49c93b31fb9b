package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parcube"
	"parcube/internal/server"
)

// queryLoad is what the load generators share: the statement set as
// ready-to-send frame bodies, the local reference for checking replies,
// and the tallies every phase adds to.
type queryLoad struct {
	stmts  []statement
	bodies [][]byte
	ref    *parcube.Cube // nil: replies are only checked for an OK table header

	// expected reply bodies, rendered from ref on first use.
	expMu    sync.Mutex
	expected [][]byte
	// lastCheck is the unix-nano time a statement's reply was last
	// compared: one sampled reply per statement per second.
	lastCheck []atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64 // error, refused or overloaded
	wrong     atomic.Int64 // reply differs from the reference
	checked   atomic.Int64
	firstErr  atomic.Value // string

	tr *tracer
}

func newQueryLoad(stmts []statement, ref *parcube.Cube, tr *tracer) *queryLoad {
	q := &queryLoad{
		stmts: stmts, ref: ref, tr: tr,
		bodies:    make([][]byte, len(stmts)),
		expected:  make([][]byte, len(stmts)),
		lastCheck: make([]atomic.Int64, len(stmts)),
	}
	for i, s := range stmts {
		q.bodies[i] = []byte("QUERY " + s.text + "\n")
	}
	return q
}

func (q *queryLoad) keys() stmtIndex {
	m := make(stmtIndex, len(q.stmts))
	for i, s := range q.stmts {
		m[s.text] = int32(i)
	}
	return m
}

func (q *queryLoad) fail(format string, args ...any) {
	q.failed.Add(1)
	q.firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
}

func (q *queryLoad) expectedFor(i int) ([]byte, error) {
	q.expMu.Lock()
	defer q.expMu.Unlock()
	if q.expected[i] == nil {
		tbl, err := q.ref.Query(q.stmts[i].text)
		if err != nil {
			return nil, err
		}
		q.expected[i] = expectedReply(tbl)
	}
	return q.expected[i], nil
}

// one sends statement i on c and returns the latency and reply size; ok
// is false when the request failed. The reply is checked after the clock
// stops, so checking is never part of a latency.
func (q *queryLoad) one(c *server.MuxClient, i int) (lat time.Duration, size int, ok bool) {
	q.attempted.Add(1)
	start := time.Now()
	resp, err := c.Session().Do(q.bodies[i])
	end := time.Now()
	lat = end.Sub(start)
	if err != nil {
		q.fail("%s: %v", q.stmts[i].text, err)
		return lat, 0, false
	}
	if !bytes.HasPrefix(resp, []byte("OK ")) {
		q.fail("%s: reply %q", q.stmts[i].text, firstLine(resp))
		return lat, len(resp), false
	}
	q.tr.record(spanClient, int32(i), start, end)
	if q.ref != nil {
		now := end.UnixNano()
		if last := q.lastCheck[i].Load(); now-last >= int64(time.Second) && q.lastCheck[i].CompareAndSwap(last, now) {
			q.checked.Add(1)
			want, err := q.expectedFor(i)
			if err != nil {
				q.fail("reference for %s: %v", q.stmts[i].text, err)
			} else if !bytes.Equal(resp, want) {
				q.wrong.Add(1)
				q.firstErr.CompareAndSwap(nil, "wrong answer for "+q.stmts[i].text)
			}
		}
	}
	return lat, len(resp), true
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}

// sample is one successful request of a phase, kept small: a run holds
// a few hundred thousand of them in the heap the system under test shares.
type sample struct {
	at    float32 // seconds into the phase: send time (closed) or due time (open)
	lat   float32 // microseconds; from the due time in an open loop
	svc   float32 // microseconds send to reply
	late  float32 // microseconds the generator sent after the due time (open loop)
	size  int32
	class int8
}

func micros(d time.Duration) float32 { return float32(float64(d.Nanoseconds()) / 1e3) }

// closedLoop runs one goroutine per client, each with one request in
// flight, for d. Samples from the first warm of it are dropped.
func (q *queryLoad) closedLoop(clients []*server.MuxClient, pick []picker, warm, d time.Duration) (samples []sample, elapsed float64) {
	var wg sync.WaitGroup
	per := make([][]sample, len(clients))
	for i := range per {
		per[i] = make([]sample, 0, 1<<16)
	}
	start := time.Now()
	measureFrom := start.Add(warm)
	deadline := measureFrom.Add(d)
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				i := pick[ci]()
				lat, size, ok := q.one(clients[ci], i)
				if !ok || sent.Before(measureFrom) {
					continue
				}
				per[ci] = append(per[ci], sample{
					at: float32(sent.Sub(measureFrom).Seconds()), lat: micros(lat), svc: micros(lat),
					size: int32(size), class: int8(q.stmts[i].class),
				})
			}
		}(ci)
	}
	wg.Wait()
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, d.Seconds()
}

// openLoopWorkers bounds the requests an open loop keeps in flight; with
// the mux window of 32 per connection a larger pool could not send more.
const openLoopWorkers = 32

// openLoop sends at a fixed rate for d regardless of replies: request k
// is due at k/rate seconds, and its latency is counted from then, so the
// wait a stall imposes on the requests behind it is part of the result.
func (q *queryLoad) openLoop(clients []*server.MuxClient, pick picker, rate float64, d time.Duration) []sample {
	type job struct {
		due time.Time
		i   int
	}
	// Buffered for a full second of arrivals so a stall backs work up
	// here, as a queue in front of the system, instead of stopping the
	// generator's clock.
	jobs := make(chan job, int(rate)+1)
	per := make([][]sample, openLoopWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < openLoopWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for j := range jobs {
				sent := time.Now()
				lat, size, ok := q.one(c, j.i)
				if !ok {
					continue
				}
				done := sent.Add(lat)
				per[w] = append(per[w], sample{
					at:    float32(j.due.Sub(start).Seconds()),
					lat:   micros(done.Sub(j.due)),
					svc:   micros(lat),
					late:  micros(sent.Sub(j.due)),
					size:  int32(size),
					class: int8(q.stmts[j.i].class),
				})
			}
		}(w)
	}
	// The generator sleeps until the next request is due and then sends
	// every request that has come due. Where timers fire late (about a
	// millisecond in a small sandbox) arrivals bunch up; each request is
	// still timed from its own due time, and gen_late_p99_us says how
	// late the generator ran.
	interval := float64(time.Second) / rate
	total := int(rate * d.Seconds())
	for k := 0; k < total; {
		due := start.Add(time.Duration(float64(k) * interval))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			continue
		}
		jobs <- job{due: due, i: pick()}
		k++
	}
	close(jobs)
	wg.Wait()
	var samples []sample
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples
}

// lats returns one field of every sample, for the sorting helpers.
func lats(samples []sample, f func(sample) float32) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(f(s))
	}
	return out
}
