package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"parcube/internal/qcache"
	"parcube/internal/server"
	"parcube/internal/shard"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowedQuantileIsolatesOneStall(t *testing.T) {
	// Six one-second windows of 100 samples at 1.0; one window also holds
	// a stall of 20 samples at 50. The whole-run p99 sees the stall, the
	// median of the windows' p99s does not.
	var samples []timed
	var all []float64
	for w := 0; w < 6; w++ {
		for i := 0; i < 100; i++ {
			samples = append(samples, timed{at: float64(w) + float64(i)/100, value: 1})
			all = append(all, 1)
		}
	}
	for i := 0; i < 20; i++ {
		samples = append(samples, timed{at: 2.5, value: 50})
		all = append(all, 50)
	}
	if got := windowedQuantile(samples, 6, 6, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := percentile(sortedCopy(all), 0.99); got != 50 {
		t.Errorf("whole-run p99 = %v, want 50", got)
	}
	// Samples outside the span are ignored, empty windows skipped.
	if got := windowedQuantile([]timed{{at: 7, value: 9}, {at: 0.5, value: 3}}, 6, 6, 0.99); got != 3 {
		t.Errorf("windowed p99 with a stray sample = %v, want 3", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	q1, q3 := quartiles(sortedCopy(v))
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	got, ok := spread(v)
	if want := (31 - 3.5) / 13.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v (%v), want %v", got, ok, want)
	}
	if _, ok := spread([]float64{3}); ok {
		t.Error("spread of one value should not be defined")
	}
}

func TestSpanLinkingAndSelfTime(t *testing.T) {
	// Two requests for statement 7 overlap in time; each has a qcache
	// span, one of them a coord span (a miss). A request for statement 8
	// has a qcache span only.
	spans := []span{
		{ID: 1, Name: spanClient, Key: 7, Start: 0, End: 100},
		{ID: 2, Name: spanClient, Key: 7, Start: 10, End: 300},
		{ID: 3, Name: spanQcache, Key: 7, Start: 20, End: 60},
		{ID: 4, Name: spanQcache, Key: 7, Start: 30, End: 250},
		{ID: 5, Name: spanCoord, Key: 7, Start: 40, End: 240},
		{ID: 6, Name: spanClient, Key: 8, Start: 5, End: 50},
		{ID: 7, Name: spanQcache, Key: 8, Start: 15, End: 25},
		{ID: 8, Name: "recovery.checkpoint", Key: -1, Start: 400, End: 450},
	}
	linkRequests(spans)
	parent := map[int64]int64{}
	req := map[int64]int64{}
	for _, s := range spans {
		parent[s.ID], req[s.ID] = s.Parent, s.Req
	}
	// Span 4 ends at 250, after client 1 has finished, so it can only
	// belong to client 2; span 3 then gets client 1.
	want := map[int64]int64{1: 0, 2: 0, 3: 1, 4: 2, 5: 4, 6: 0, 7: 6, 8: 0}
	if !reflect.DeepEqual(parent, want) {
		t.Fatalf("parents = %v, want %v", parent, want)
	}
	if req[5] != 2 || req[4] != 2 || req[3] != 1 || req[7] != 6 || req[8] != 0 {
		t.Errorf("request ids = %v", req)
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 60, 2: 70, 3: 40, 4: 20, 5: 200, 6: 35, 7: 10, 8: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Overlapping children are counted once, and clipped to the parent.
	overlap := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 120},
	}
	if got := selfTimes(overlap)[1]; got != 10 {
		t.Errorf("self time under overlapping children = %d, want 10", got)
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if !reflect.DeepEqual(genServingFacts(3), genServingFacts(3)) {
		t.Error("same seed, different facts")
	}
	if reflect.DeepEqual(genServingFacts(3)[:100], genServingFacts(4)[:100]) {
		t.Error("different seeds, same facts")
	}
	a, _, err := genBuildInput(5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := genBuildInput(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() || a.NNZ() != 64*64*32*32/10 {
		t.Errorf("build input has %d and %d cells, want %d", a.NNZ(), b.NNZ(), 64*64*32*32/10)
	}

	for _, n := range []int{96, 2048} {
		s1, s2 := genStatements(9, n), genStatements(9, n)
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("same seed, different %d statements", n)
		}
		if reflect.DeepEqual(s1, genStatements(10, n)) {
			t.Errorf("different seeds, same %d statements", n)
		}
		seen := map[string]bool{}
		var perClass [numClasses]int
		for i, s := range s1 {
			if seen[s.text] {
				t.Fatalf("statement %q repeats", s.text)
			}
			seen[s.text] = true
			perClass[s.class]++
			if s.class != classPattern[i%len(classPattern)] {
				t.Fatalf("statement %d has class %d, the pattern says %d", i, s.class, classPattern[i%len(classPattern)])
			}
		}
		for class, share := range [numClasses]float64{0.7, 0.2, 0.1} {
			if got := float64(perClass[class]) / float64(n); math.Abs(got-share) > 0.01 {
				t.Errorf("%d statements: class %d has share %.3f, want %.1f", n, class, got, share)
			}
		}
	}

	p1, p2 := newPicker(1, 0, 96, 1.2), newPicker(1, 0, 96, 1.2)
	other := newPicker(1, 1, 96, 1.2)
	same, differ := true, false
	for i := 0; i < 200; i++ {
		x := p1()
		same = same && x == p2()
		differ = differ || x != other()
		if x < 0 || x >= 96 {
			t.Fatalf("picker drew %d outside [0,96)", x)
		}
	}
	if !same || !differ {
		t.Errorf("pickers: same stream equal=%v, other stream differs=%v", same, differ)
	}

	g1, g2 := newDeltaGen(2), newDeltaGen(2)
	width := -1
	for i := 0; i < 500; i++ {
		r1, r2 := g1.row(), g2.row()
		if !reflect.DeepEqual(r1, r2) {
			t.Fatal("same seed, different delta rows")
		}
		if n := len(appendRow(nil, r1.Coords, r1.Value)); width >= 0 && n != width {
			t.Fatalf("delta row encodes to %d bytes, earlier ones to %d: wal_bytes_per_rec would depend on the seed", n, width)
		} else {
			width = n
		}
	}
}

// TestDecoratorsForwardOptionalInterfaces holds each decorator to the
// optional interfaces of the value it wraps: the server and the cache
// find features by type assertion, so a missing method would not fail,
// it would quietly change what the traced run measures.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	optional := map[string]reflect.Type{
		"server.Backend":           reflect.TypeOf((*server.Backend)(nil)).Elem(),
		"server.ValueBackend":      reflect.TypeOf((*server.ValueBackend)(nil)).Elem(),
		"server.DeltaBackend":      reflect.TypeOf((*server.DeltaBackend)(nil)).Elem(),
		"server.DeltaBatchBackend": reflect.TypeOf((*server.DeltaBatchBackend)(nil)).Elem(),
		"server.WALTailBackend":    reflect.TypeOf((*server.WALTailBackend)(nil)).Elem(),
		"server.TruncateBackend":   reflect.TypeOf((*server.TruncateBackend)(nil)).Elem(),
		"server.CheckpointBackend": reflect.TypeOf((*server.CheckpointBackend)(nil)).Elem(),
		"server.StatsReporter":     reflect.TypeOf((*server.StatsReporter)(nil)).Elem(),
		"qcache.Planner":           reflect.TypeOf((*qcache.Planner)(nil)).Elem(),
		"qcache.IngestNotifier":    reflect.TypeOf((*qcache.IngestNotifier)(nil)).Elem(),
		"qcache.PlanNotifier":      reflect.TypeOf((*qcache.PlanNotifier)(nil)).Elem(),
	}
	pairs := []struct {
		decor, wrapped reflect.Type
	}{
		{reflect.TypeOf(&cacheDecor{}), reflect.TypeOf(&qcache.Cache{})},
		{reflect.TypeOf(&coordDecor{}), reflect.TypeOf(&shard.Coordinator{})},
	}
	for _, p := range pairs {
		for name, iface := range optional {
			if d, w := p.decor.Implements(iface), p.wrapped.Implements(iface); d != w {
				t.Errorf("%v implements %s: %v, but %v: %v", p.decor, name, d, p.wrapped, w)
			}
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(data))
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations holds BENCHMARK.json and metrics.go
// together, and both to the limits the driver puts on the file.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, the harness runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		if runners[name] == nil {
			t.Errorf("workload %s has no runner", name)
		}
	}

	used := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, metrics.go has %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json says %s/%s/%s, metrics.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: %q with unit %q is outside the allowed characters", kind, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: %s is better %q", kind, g.Name, g.Better)
			}
			if used[g.Name] {
				t.Errorf("name %s is used twice", g.Name)
			}
			used[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: %s has bound %v, metrics.go %v; it must be in (0, 0.25]", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, g.Name)
			}
		}
	}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) || used[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		used[w.Name] = true
	}
	check("end_to_end", m.EndToEnd, endToEndMetrics, true)
	check("per_layer", m.PerLayer, perLayerMetrics, false)
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	largest := 0.0
	for _, e := range endToEndMetrics {
		largest = max(largest, e.Bound)
	}
	if s := endToEndMetrics[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be declared in seconds, lower is better, with the largest bound; got %+v", s)
	}
	// Every shared name says, for every workload, which operation it is.
	for name, per := range opOf {
		for _, w := range workloadNames {
			if per[w] == "" {
				t.Errorf("opOf[%s] does not say what it measures on %s", name, w)
			}
		}
	}
	for _, d := range detailMetrics {
		for _, w := range d.On {
			if runners[w] == nil {
				t.Errorf("detail metric %s is reported on unknown workload %s", d.Name, w)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "query_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "query_qps", Better: "higher", Bound: 0.10}
	count := metricDecl{Name: "build_comm_elems", Better: "lower", Bound: 0}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		m            metricDecl
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, []float64{100, 140, 70, 100, 120}, []float64{130, 131, 129, 130, 130}, "unresolved"},
		{lower, []float64{100}, []float64{120}, "worse"},
		{count, []float64{263168, 263168}, []float64{263168, 263168}, "ok"},
		{count, []float64{263168, 263168}, []float64{263169, 263169}, "worse"},
	}
	for i, c := range cases {
		if _, _, _, got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("case %d (%s): verdict %q, want %q", i, c.m.Name, got, c.want)
		}
	}
}

// TestQuickSmoke runs every workload for two seconds, and one traced run
// whose canaries fill in the layers the workload does not touch: every
// run must be correct with nothing failed, and emit exactly the metrics
// BENCHMARK.json declares, none of them zero where the driver gates.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands the whole system up; skipped with -short")
	}
	cfg := runConfig{seed: 7, seconds: 2 * time.Second, outDir: t.TempDir(), clients: 2, setups: 1}
	for _, name := range workloadNames {
		cfg.workload = name
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.correct() || res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v %v", name, res.correct(), res.failed, res.attempted, res.incorrect, res.notes)
		}
		line := driverLine(res, false)
		if len(res.e2e) != len(endToEndMetrics) {
			t.Errorf("%s emits %d end-to-end metrics, %d are declared: %v", name, len(res.e2e), len(endToEndMetrics), res.e2e)
		}
		for _, m := range endToEndMetrics {
			if v := line.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v; a gated metric must never be 0", name, m.Name, v)
			}
		}
		declared := map[string]bool{}
		for _, m := range detailMetrics {
			if m.reportedOn(name) {
				declared[m.Name] = true
			}
		}
		for metric := range res.detail {
			if !declared[metric] {
				t.Errorf("%s emits %s, which detailMetrics does not declare for it", name, metric)
			}
		}
		for metric := range declared {
			if _, ok := res.detail[metric]; !ok {
				t.Errorf("%s does not emit %s", name, metric)
			}
		}
	}

	cfg.workload = "build"
	res, err := runTraced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("traced build: %v", res.incorrect)
	}
	declared := map[string]bool{}
	for _, m := range perLayerMetrics {
		declared[m.Name] = true
		if _, ok := res.layer[m.Name]; !ok {
			t.Errorf("traced run does not emit %s", m.Name)
		}
	}
	for name := range res.layer {
		if !declared[name] {
			t.Errorf("traced run emits %s, which perLayerMetrics does not declare", name)
		}
	}
	if _, err := os.Stat(cfg.outDir + "/trace-build.json"); err != nil {
		t.Errorf("no span file: %v", err)
	}
}
