// Command perfbench is the repository's benchmark. It builds a personnel
// fixture from a seed, drives one workload through the engine's public
// surfaces (pkg/client over a loopback server, core.Engine and Txn, the
// TMQL parser and analyzer, the engine's counters and histograms), checks
// every answer against an independent shadow model, and prints one JSON
// result line as the last line of standard output.
//
//	go run . --workload point-read --seed 1 --seconds 10 --trace 0
//	go run . --workload history-scan --seed 2 --seconds 10 --trace 1
//	go run . --probe-redo 10
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics and the run writes its spans to a JSON
// lines file under --dir. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "point-read or history-scan")
	seed := flag.Int64("seed", 1, "seed for the fixture and the query mix")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench-data"), "scratch directory for fixtures and traces")
	probe := flag.Int("probe-redo", 0, "instead of a workload: reproduce the bulk-load crash-recovery fault over N trials")
	flag.Parse()

	if *probe > 0 {
		if err := probeRedo(*dir, *probe); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("unknown workload %q (want one of %v)", *name, names))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	r := &runner{name: *name, w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: *dir}
	res, err := r.run()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
