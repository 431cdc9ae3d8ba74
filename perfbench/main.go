// Command perfbench is the end-to-end benchmark of the adaptive ranked
// extraction pipeline. It generates a workload's corpora from --seed,
// labels them with the built-in extractor, runs whole adaptiverank.Run
// calls for --seconds, checks every output against the labels, and
// prints its figures as one JSON object on the last line of standard
// output. With --trace 1 it instead runs the pipeline with every layer
// interface wrapped in a clock and reports the per-layer split.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload rsvm-modc --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run()) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, its corpora, and what the runs
// have measured and found so far.
type bench struct {
	w          workload
	cases      []*corpusCase
	setupTimes []float64
	artifacts  string // root of the armed runs' artifact directories
	armedRuns  int

	attempted, failed int // documents
	problems          []string
	metrics           map[string]metric
}

func (b *bench) put(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) fail(cc *corpusCase, err error) {
	b.problems = append(b.problems, fmt.Sprintf("corpus seed %d: %v", cc.seed, err))
}

func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "corpus seed")
		seconds = flag.Float64("seconds", 20, "measuring time")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		dir     = flag.String("artifacts", ".bench_build", "directory for the armed runs' artifacts")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(procs())

	cases, setupTimes, err := w.setup(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	b := &bench{w: w, cases: cases, setupTimes: setupTimes, metrics: map[string]metric{}}
	if w.armed {
		b.artifacts = filepath.Join(*dir, fmt.Sprintf("perfbench-artifacts-%d", os.Getpid()))
		defer os.RemoveAll(b.artifacts)
	}
	b.note("%s: seed %d, %d corpora of %d docs, GOMAXPROCS=%d Workers=%d, %s",
		w.name, *seed, len(cases), corpusDocs, runtime.GOMAXPROCS(0), procs(), runtime.Version())

	if *trace == 1 {
		err = b.traced(*seconds)
	} else {
		err = b.timed(*seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if b.attempted > 0 {
		b.note("fail_share %.4f (%d of %d documents)", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	rep := report{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	if !rep.Correct && rep.Failed == 0 {
		rep.Failed = 1 // a failed check outside any counted run
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
