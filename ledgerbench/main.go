// Command ledgerbench is clusched's layer ledger: one benchmark that prices
// the compilation passes, the batch engine and the served path end to end,
// and splits the cost by layer in a separate traced run.
//
// Usage (from the repository root; ledgerbench/run.sh builds and runs it):
//
//	ledgerbench --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of one workload; with
// --trace 1 it alternates untraced reference passes with traced passes over
// the same inputs and reports per-layer metrics, writing the recorded spans
// to .bench_build/ledgerbench/spans/. Every schedule any pass returns is
// checked with sched.Verify and the cycle-accurate simulator outside the
// timed region; a failed check names the job by (workload, seed, index)
// and exits 1. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. "failed" counts the error
// outcomes that are not register-bound give-ups (see checker.failures);
// those give-ups are the program's known defect and show in ok_frac.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload's pass to a handful of jobs; the smoke
	// test uses it.
	tiny bool
	// spanDir receives the traced run's span file ("" = no file).
	spanDir string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.spanDir, "span-dir", ".bench_build/ledgerbench/spans", "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = trace != 0
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "ledgerbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ledgerbench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		if rep == nil {
			os.Exit(2)
		}
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its report. A failed output
// check returns both a report with Correct false and the error naming the
// job; an error with a nil report means nothing was measured.
func run(cfg config, log io.Writer) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	h := describeHost()
	hostLine, _ := json.Marshal(h)
	fmt.Fprintf(log, "host %s\n", hostLine)
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if cfg.trace {
		return traced(w, cfg, h, log)
	}
	return endToEnd(w, cfg, log)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
