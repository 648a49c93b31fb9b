// Command benchmark is the one benchmark of the whole system: it stands
// every layer up in this process over loopback TCP, runs one of four
// workloads against it, checks that the answers are exact, and prints
// every metric by name with its unit. BENCHMARK.json at the repository
// root declares the workloads and metrics; README.md explains them.
//
//	go run -C benchmark . -workload serve_hot -seed 1
//	go run -C benchmark . -all -repeat 3 -out base.json
//	go run -C benchmark . -workload serve_cold -trace 1
//	go run -C benchmark . -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of the
// run, or with -trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 25

func main() {
	workload := flag.String("workload", "", "workload to run: build, serve_hot, serve_cold or ingest_mixed")
	all := flag.Bool("all", false, "run every workload")
	seed := flag.Int64("seed", 1, "seed of every generated input and request order")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phases in seconds")
	trace := flag.Int("trace", 0, "1: record spans, write trace-<workload>.json, report the per-layer metrics")
	quick := flag.Bool("quick", false, "a 2-second smoke run with one set-up")
	repeat := flag.Int("repeat", 1, "runs per workload; -compare needs several to tell a change from noise")
	out := flag.String("out", "", "write the runs, stamped with commit and machine, to this JSON file")
	outDir := flag.String("outdir", "out", "directory for trace files and scratch data dirs")
	compare := flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d", flag.NArg()))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	names := []string{*workload}
	if *all {
		names = workloadNames
	} else if *workload == "" {
		fatal(fmt.Errorf("need -workload <name>, -all or -compare; workloads: %v", workloadNames))
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		outDir:  *outDir,
		clients: runtime.NumCPU(),
		setups:  setupRepeats,
	}
	if *quick {
		cfg.seconds, cfg.setups = 2*time.Second, 1
	}

	file := resultFile{Stamp: newStamp(cfg)}
	ok := true
	var last *result
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			cfg.workload = name
			run := runWorkload
			if *trace != 0 {
				run = runTraced
			}
			res, err := run(cfg)
			if err != nil {
				fatal(err)
			}
			printResult(os.Stdout, res, *trace != 0)
			file.Runs = append(file.Runs, recordOf(res, *trace != 0))
			ok = ok && res.correct()
			last = res
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal(err)
		}
	}
	// The driver's line: the last run's metrics, as the last line.
	if err := json.NewEncoder(os.Stdout).Encode(driverLine(last, *trace != 0)); err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverLine renders exactly the declared metrics of the kind asked for.
func driverLine(res *result, traced bool) driverResult {
	decls, values := endToEndMetrics, res.e2e
	if traced {
		decls, values = perLayerMetrics, res.layer
	}
	d := driverResult{Correct: res.correct(), Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range decls {
		d.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return d
}

// printResult prints every metric of the run by name with its unit.
func printResult(w *os.File, res *result, traced bool) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d replies_checked=%d\n",
		res.workload, res.correct(), res.attempted, res.failed, res.checked)
	for _, m := range detailMetrics {
		if v, ok := res.detail[m.Name]; ok && m.reportedOn(res.workload) {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, m := range endToEndMetrics {
		if what, shared := opOf[m.Name]; shared {
			fmt.Fprintf(w, "%-34s %16.6g %-6s (%s)\n", m.Name, res.e2e[m.Name], m.Unit, what[res.workload])
		}
	}
	if traced {
		names := make([]string, 0, len(res.layer))
		for name := range res.layer {
			names = append(names, name)
		}
		sort.Strings(names)
		units := make(map[string]string, len(perLayerMetrics))
		for _, m := range perLayerMetrics {
			units[m.Name] = m.Unit
		}
		for _, name := range names {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", name, res.layer[name], units[name])
		}
	}
	for _, n := range res.incorrect {
		fmt.Fprintf(w, "INCORRECT: %s\n", n)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
