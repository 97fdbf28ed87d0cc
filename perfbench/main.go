// Command perfbench is the repository benchmark. One invocation runs one
// named workload on inputs generated from --seed, times it for --seconds,
// checks every output against an oracle, and prints the metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
// p50_ms, mem_mb; p99_ms and fail_frac are printed but not in the JSON);
// with --trace 1 they are the per-layer ones,
// measured from spans this package records around calls into each
// module's public functions. Human-readable lines before the JSON give
// the run fingerprint, every metric with its unit and sample count, and
// (traced) the per-layer self-time table.
//
// Run it from the repository root through the wrapper, which builds the
// binary under .bench_build:
//
//	bash perfbench/run.sh --workload pagerank --seed 1 --seconds 20 --trace 0
//
// WORKLOADS.md records each workload's op, why it was chosen, and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every workload's matrix scale; 1 is the benchmark
	// size, tests use a small fraction.
	scale float64
	// corrupt perturbs every oracle reference, so a correct program must
	// fail the run (the oracle's own self-check).
	corrupt bool
	// outDir receives the run record and, when traced, the span dump.
	outDir string
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(cfg *config, rep *report) error

var workloads = map[string]workloadFunc{
	"pagerank":     runPageRank,
	"subspace8":    runSubspace,
	"serve-binary": func(cfg *config, rep *report) error { return runServe(cfg, rep, false) },
	"serve-json":   func(cfg *config, rep *report) error { return runServe(cfg, rep, true) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload, and prints the result. It returns
// the process exit code: 0 only for a correct run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var traceFlag int
	var compare string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Float64Var(&cfg.scale, "scale", 1, "matrix scale multiplier (tests use small values)")
	fs.BoolVar(&cfg.corrupt, "corrupt-oracle", false, "perturb the oracle references; the run must fail")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for run records and span dumps")
	fs.StringVar(&compare, "compare", "", "OLD,NEW: compare two run records; refuses records from different hosts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare != "" {
		return runCompare(compare, stdout, stderr)
	}
	wf, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1 {
		fmt.Fprintf(stderr, "perfbench: need --seconds > 0 and 0 < --scale <= 1\n")
		return 2
	}

	rep := newReport(cfg)
	fmt.Fprintln(stdout, rep.fp.line())
	if err := wf(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := rep.result()
	rep.print(stdout)
	if err := rep.save(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: oracle: %s\n", p)
		}
		return 1
	}
	return 0
}
