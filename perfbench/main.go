// Command perfbench is the repository's wall-clock benchmark. It builds
// each workload's instance from --seed, times calls into the public
// functions of graph, dist, core, deltacolor and field, checks every
// coloring outside the engine, and prints one JSON result as the last
// line of standard output. Run it through run.py, which builds this
// package from the checkout's source and pins GOMAXPROCS=1.
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// a dist.Probe is attached to the colorings and the result holds the
// per-layer metrics instead (see README.md for the map between them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is printed with every result: the settings that make runs
// comparable.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workers    int    `json:"workers"`
	GOGC       string `json:"gogc"`
	GCBefore   bool   `json:"gc_before_each_coloring"`
	Traced     bool   `json:"traced"`
}

func main() {
	os.Exit(run())
}

func run() int {
	start := time.Now()
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "instance seed")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for DCG1 files and traces")
	proc := flag.Bool("proc", false, "run as one coloring process of a run (set by the harness itself)")
	procSeconds := flag.Float64("proc-seconds", 0, "with --proc: how long the process keeps coloring")
	crossCheck := flag.Bool("cross-check", false, "with --proc: also color a sharded instance on the flat engine")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	runtime.GOMAXPROCS(1)
	h := &harness{w: w, seed: *seed, dir: *workDir, budget: time.Duration(*seconds) * time.Second}
	if *proc {
		if err := h.colorProc(start, time.Duration(*procSeconds*float64(time.Second)), *crossCheck); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
			return 1
		}
		return 0
	}

	env := environment{
		Workload: w.name, Seed: *seed, GoVersion: runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Workers: 1,
		GOGC: os.Getenv("GOGC"), GCBefore: true, Traced: *traced == 1,
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = h.measureLayers()
	} else {
		res, err = h.measureEndToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	for _, v := range []any{env, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}
