package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// stamp says what produced a result file, so two files can be told to be
// comparable before their numbers are.
type stamp struct {
	GitSHA        string             `json:"git_sha"`
	GoVersion     string             `json:"go_version"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	NProc         int                `json:"nproc"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	OpenLoopRates map[string]float64 `json:"open_loop_rates_per_s"`
	When          string             `json:"when"`
}

func newStamp(cfg runConfig) stamp {
	return stamp{
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NProc:         runtime.NumCPU(),
		Seed:          cfg.seed,
		Seconds:       cfg.seconds.Seconds(),
		OpenLoopRates: openLoopRate,
		When:          time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA reads the checked-out commit from the nearest .git directory
// above the working directory; "unknown" outside a repository.
func gitSHA() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		git := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(git, "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			name, isRef := strings.CutPrefix(ref, "ref: ")
			if !isRef {
				return ref
			}
			if sha, err := os.ReadFile(filepath.Join(git, name)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			if packed, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
				for _, line := range strings.Split(string(packed), "\n") {
					if sha, ok := strings.CutSuffix(line, " "+name); ok {
						return sha
					}
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checked   int64              `json:"replies_checked"`
	Metrics   map[string]float64 `json:"metrics"`    // the issue's end-to-end names
	EndToEnd  map[string]float64 `json:"end_to_end"` // the names BENCHMARK.json shares across workloads
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func recordOf(res *result, traced bool) runRecord {
	r := runRecord{
		Workload: res.workload, Traced: traced, Correct: res.correct(),
		Attempted: res.attempted, Failed: res.failed, Checked: res.checked,
		Metrics: res.detail, EndToEnd: res.e2e,
		Notes: append(append([]string(nil), res.incorrect...), res.notes...),
	}
	if traced {
		r.PerLayer = res.layer
	}
	return r
}

type resultFile struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runRecord `json:"runs"`
}

func (f resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// values returns the metric's value in every untraced run of workload.
func (f resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if x, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			v = append(v, x)
		}
	}
	return v
}

// verdict judges one metric on one workload: base and change are each
// file's runs. A change is worse when its median is on the wrong side of
// the base's by more than the bound; when either side's own runs spread
// wider than the bound, the pair is unresolved instead, because the
// difference cannot be told from noise. A bound of 0 is for counts that
// repeat exactly and for fail_ratio: any move the wrong way is worse.
func verdict(m metricDecl, base, change []float64) (ratio float64, spreadShare float64, haveSpread bool, word string) {
	a, b := median(base), median(change)
	if a != 0 {
		ratio = b / a
	}
	for _, v := range [][]float64{base, change} {
		if s, ok := spread(v); ok {
			spreadShare, haveSpread = max(spreadShare, s), true
		}
	}
	worse := b - a
	if m.Better == "higher" {
		worse = a - b
	}
	switch {
	case m.Bound == 0 && worse > 0:
		return ratio, spreadShare, haveSpread, "worse"
	case m.Bound == 0:
		return ratio, spreadShare, haveSpread, "ok"
	case haveSpread && spreadShare > m.Bound:
		return ratio, spreadShare, haveSpread, "unresolved"
	case a != 0 && worse/a > m.Bound:
		return ratio, spreadShare, haveSpread, "worse"
	}
	return ratio, spreadShare, haveSpread, "ok"
}

// compareFiles prints one row per end-to-end metric and workload.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readResultFile(basePath)
	if err != nil {
		return err
	}
	change, err := readResultFile(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s: commit %s, %s, GOMAXPROCS %d of %d, seed %d, %gs runs\n", basePath,
		base.Stamp.GitSHA, base.Stamp.GoVersion, base.Stamp.GOMAXPROCS, base.Stamp.NProc, base.Stamp.Seed, base.Stamp.Seconds)
	fmt.Fprintf(w, "change %s: commit %s, %s, GOMAXPROCS %d of %d, seed %d, %gs runs\n", changePath,
		change.Stamp.GitSHA, change.Stamp.GoVersion, change.Stamp.GOMAXPROCS, change.Stamp.NProc, change.Stamp.Seed, change.Stamp.Seconds)
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %-16s %7s %8s  %s\n",
		"workload", "metric", "base", "change", "change/base", "bound", "spread", "verdict")
	for _, wl := range workloadNames {
		for _, m := range detailMetrics {
			a, b := base.values(wl, m.Name), change.values(wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ratio, sp, haveSpread, word := verdict(m, a, b)
			spreadText := "n/a"
			if haveSpread {
				spreadText = fmt.Sprintf("%.3f", sp)
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %-16s %7.3g %8s  %s\n", wl, m.Name,
				median(a), median(b), fmt.Sprintf("%.4f (n=%d,%d)", ratio, len(a), len(b)), m.Bound, spreadText, word)
		}
	}
	return nil
}
