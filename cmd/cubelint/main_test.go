package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the process into dir for the duration of the test; run()
// resolves packages relative to the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// scratchModule writes a throwaway module containing one package with a
// known mutex-hygiene violation.
func scratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"bad.go": `package scratch

import "sync"

type box struct {
	mu sync.Mutex
	v  int
}

func (b *box) peek() int {
	b.mu.Lock()
	return b.v
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunFindsViolation(t *testing.T) {
	chdir(t, scratchModule(t))
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "mutex-hygiene") || !strings.Contains(out, "bad.go") {
		t.Errorf("output missing expected finding:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	chdir(t, scratchModule(t))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, `"code": "mutex-hygiene"`) {
		t.Errorf("JSON output missing finding:\n%s", out)
	}
}

func TestRunCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-codes"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, want := range []string{"untrusted-alloc", "deadline", "goroutine-leak", "mutex-hygiene", "obs-metric", "unchecked-close"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("catalog missing %s:\n%s", want, stdout.String())
		}
	}
}

// TestBaselineRoundTrip pins the ratchet loop: -write-baseline records
// the scratch module's finding, and a rerun with -baseline against that
// file exits clean even though the finding is still present.
func TestBaselineRoundTrip(t *testing.T) {
	dir := scratchModule(t)
	chdir(t, dir)
	base := filepath.Join(dir, "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "baseline-known") {
		t.Errorf("stderr missing baseline-known count: %s", stderr.String())
	}
}

// TestBaselineLineDrift confirms a baseline entry keeps matching after
// the finding moves to a different line: the match ignores line/column.
func TestBaselineLineDrift(t *testing.T) {
	dir := scratchModule(t)
	chdir(t, dir)
	base := filepath.Join(dir, "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}

	// Shift the finding down by prepending declarations to the file.
	src, err := os.ReadFile(filepath.Join(dir, "bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	shifted := strings.Replace(string(src), "import \"sync\"",
		"import \"sync\"\n\nvar padA int\n\nvar padB int", 1)
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(shifted), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("post-drift exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestBaselineNewFindingFails confirms the ratchet bites: a second
// finding not in the baseline fails the run and is the only one printed.
func TestBaselineNewFindingFails(t *testing.T) {
	dir := scratchModule(t)
	chdir(t, dir)
	base := filepath.Join(dir, "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}

	extra := `package scratch

import "sync"

type crate struct {
	mu sync.Mutex
	v  int
}

func (c *crate) peek() int {
	c.mu.Lock()
	return c.v
}
`
	if err := os.WriteFile(filepath.Join(dir, "worse.go"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "worse.go") {
		t.Errorf("new finding not reported:\n%s", out)
	}
	if strings.Contains(out, "bad.go") {
		t.Errorf("baseline-known finding reported as new:\n%s", out)
	}
}

// TestBaselineRoundTripNewCodes pins the wire format for the
// interprocedural codes: diagnostics in -json form written as a baseline
// must all be recognized on reload, including after line drift.
func TestBaselineRoundTripNewCodes(t *testing.T) {
	diags := []jsonDiag{
		{File: "internal/mux/session.go", Line: 300, Column: 4, Code: "lock-order",
			Message: "mux.Session.mu held across channel wait; blocking under this lock stalls every contender"},
		{File: "internal/shard/durable.go", Line: 178, Column: 15, Code: "durability-order",
			Message: "Delta can return nil error after mutating the cube but before the WAL append; the ack outruns durability"},
		{File: "internal/shard/ingest.go", Line: 42, Column: 7, Code: "lsn-discipline",
			Message: "LSN arithmetic (+) outside the blessed assignment helpers; positions are assigned densely by the WAL and the lockstep recorder only"},
		{File: "internal/server/server.go", Line: 9, Column: 3, Code: "deadline-prop",
			Message: "blocking conn I/O reachable from serving handler handleDelta with no deadline armed on the call path"},
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaselineFile(base, diags); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	fresh, known := splitBaseline(diags, loaded)
	if len(fresh) != 0 || known != len(diags) {
		t.Fatalf("round trip: %d fresh, %d known, want 0 and %d: %v", len(fresh), known, len(diags), fresh)
	}

	// Line and column drift must not resurrect a known finding.
	drifted := make([]jsonDiag, len(diags))
	copy(drifted, diags)
	for i := range drifted {
		drifted[i].Line += 10
		drifted[i].Column++
	}
	fresh, known = splitBaseline(drifted, loaded)
	if len(fresh) != 0 || known != len(diags) {
		t.Fatalf("post-drift: %d fresh, %d known, want 0 and %d: %v", len(fresh), known, len(diags), fresh)
	}

	// A genuinely new finding (same file, different message) still fails.
	extra := append(drifted, jsonDiag{File: "internal/mux/session.go", Line: 1, Column: 1,
		Code: "lock-order", Message: "a brand new inversion"})
	fresh, _ = splitBaseline(extra, loaded)
	if len(fresh) != 1 || fresh[0].Message != "a brand new inversion" {
		t.Fatalf("new finding not isolated: %v", fresh)
	}
}

// perfScratchModule writes a throwaway module whose one hot root has a
// known hot-fmt violation.
func perfScratchModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"hot.go": `package scratch

import "fmt"

var out string

// render formats per element.
//
//cubelint:hotpath scratch serving path
func render(xs []int) {
	for _, x := range xs {
		out = fmt.Sprintf("%d", x)
	}
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPerfBaselineRatchet runs the full ratchet on a perf finding: the
// hot-fmt violation fails a plain run, a written baseline accepts it,
// and a function-scope ignore directive suppresses it outright.
func TestPerfBaselineRatchet(t *testing.T) {
	dir := perfScratchModule(t)
	chdir(t, dir)
	base := filepath.Join(dir, "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "hot-fmt") || !strings.Contains(stdout.String(), "hot root") {
		t.Fatalf("output missing the hot-fmt finding:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-write-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", base, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	// A function-scope directive (last doc line, directly above the
	// declaration) accepts the whole body without a baseline.
	src, err := os.ReadFile(filepath.Join(dir, "hot.go"))
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(src),
		"//cubelint:hotpath scratch serving path\n",
		"//cubelint:hotpath scratch serving path\n//cubelint:ignore hot-fmt scratch: formatted replies by design\n", 1)
	if err := os.WriteFile(filepath.Join(dir, "hot.go"), []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("suppressed run exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "1 suppressed") {
		t.Errorf("stderr missing suppression count: %s", stderr.String())
	}
}

// TestBaselineRoundTripPerfCodes pins the baseline wire format for the
// perf analyzer family, message-matched like every other code.
func TestBaselineRoundTripPerfCodes(t *testing.T) {
	diags := []jsonDiag{
		{File: "internal/server/server.go", Line: 531, Column: 3, Code: "hot-fmt",
			Message: "fmt.Fprintf allocates per call on a hot path ((*parcube/internal/server.Server).handle, hot via (*parcube/internal/server.Server).muxHandle); build output with append into a reused buffer"},
		{File: "internal/mux/frame.go", Line: 60, Column: 9, Code: "hot-box",
			Message: "int argument boxed into any per iteration in a hot loop (hot root parcube/internal/mux.WriteFrame)"},
		{File: "internal/array/scan.go", Line: 120, Column: 2, Code: "hot-escape",
			Message: "composite literal allocated per iteration in a hot loop (hot root parcube/internal/array.Scan) [compiler-confirmed]"},
		{File: "internal/wal/wal.go", Line: 570, Column: 9, Code: "hot-append",
			Message: "append grows buf, declared without capacity, inside a hot loop (hot root (*parcube/internal/wal.Log).appendRunLocked); pre-size or pool the buffer"},
		{File: "internal/qcache/qcache.go", Line: 526, Column: 9, Code: "hot-conv",
			Message: "[]byte to string conversion copies on a hot path (hot root (*parcube/internal/qcache.Cache).GroupBy); probe maps with m[string(b)] or append into a reused buffer"},
		{File: "internal/mux/session.go", Line: 334, Column: 14, Code: "hot-map",
			Message: "map constructed per call on a hot path ((*parcube/internal/mux.Session).fail, hot via (*parcube/internal/mux.Session).readLoop); hoist it or reuse via a pool"},
		{File: "internal/shard/coordinator.go", Line: 88, Column: 3, Code: "hot-defer",
			Message: "defer inside a loop on a hot path (hot root (*parcube/internal/shard.Coordinator).scatter); deferred calls pile up until function exit and allocate per iteration"},
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaselineFile(base, diags); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadBaseline(base)
	if err != nil {
		t.Fatal(err)
	}
	fresh, known := splitBaseline(diags, loaded)
	if len(fresh) != 0 || known != len(diags) {
		t.Fatalf("round trip: %d fresh, %d known, want 0 and %d: %v", len(fresh), known, len(diags), fresh)
	}

	// Line drift must not resurrect known perf findings.
	drifted := make([]jsonDiag, len(diags))
	copy(drifted, diags)
	for i := range drifted {
		drifted[i].Line += 3
	}
	fresh, known = splitBaseline(drifted, loaded)
	if len(fresh) != 0 || known != len(diags) {
		t.Fatalf("post-drift: %d fresh, %d known, want 0 and %d: %v", len(fresh), known, len(diags), fresh)
	}

	// A new perf finding still fails.
	extra := append(drifted, jsonDiag{File: "internal/mux/frame.go", Line: 1, Column: 1,
		Code: "hot-map", Message: "map constructed per call on a hot path (hot root parcube/internal/mux.ReadFrame); hoist it or reuse via a pool"})
	fresh, _ = splitBaseline(extra, loaded)
	if len(fresh) != 1 || fresh[0].Code != "hot-map" {
		t.Fatalf("new perf finding not isolated: %v", fresh)
	}
}

func TestRunLoadError(t *testing.T) {
	dir := t.TempDir() // no go.mod: go list fails
	chdir(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
	}
}
