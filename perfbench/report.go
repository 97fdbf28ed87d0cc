package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports in its JSON result.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"mem_mb", "MiB"},
}

// printedOnly are end-to-end metrics printed with the others but left
// out of the JSON result. p99_ms moved 2–4× between runs as the host's
// CPU steal came and went, beyond any bound a regression gate can use.
// fail_frac is 0 on a correct program; the result's attempted and failed
// carry it.
var printedOnly = []metricDef{
	{"p99_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run reports. Every traced run
// prints all of them; a layer that does no work in the workload reads 0.
var perLayer = []metricDef{
	{"hypergraph.model_s", "s"},
	{"partition.partition_s", "s"},
	{"core.s2d_s", "s"},
	{"method.build_s", "s"},
	{"spmv.compile_s", "s"},
	{"spmv.first_call_s", "s"},
	{"spmv.autotune_s", "s"},
	{"distrib.total_msgs", "count"},
	{"distrib.max_send_msgs", "count"},
	{"distrib.volume_words", "words"},
	{"distrib.max_send_vol", "words"},
	{"distrib.load_imbalance", "ratio"},
	{"model.est_us", "us"},
	{"spmv.multiply_us", "us"},
	{"spmv.expand_us", "us"},
	{"spmv.compute_us", "us"},
	{"spmv.fold_us", "us"},
	{"spmv.block_us", "us"},
	{"spmv.transpose_block_us", "us"},
	{"spmv.allocs_per_op", "count"},
	{"sparse.mulvec_us", "us"},
	{"sparse.mulvec8_us", "us"},
	{"spmv.speedup_vs_serial", "ratio"},
	{"solver.iters", "count"},
	{"solver.self_us", "us"},
	{"solver.blockdots_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.append_us", "us"},
	{"serve.http_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.batch_us", "us"},
	{"serve.engine_us", "us"},
	{"serve.stage.decode_ms", "ms"},
	{"serve.stage.admission_ms", "ms"},
	{"serve.stage.queue_ms", "ms"},
	{"serve.stage.assemble_ms", "ms"},
	{"serve.stage.flush_ms", "ms"},
	{"serve.stage.encode_ms", "ms"},
	{"serve.mean_batch", "count"},
	{"serve.req_bytes", "bytes"},
	{"serve.resp_bytes", "bytes"},
	{"serve.sheds", "count"},
	{"trace.op_us", "us"},
	{"trace.remainder_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// fingerprint identifies the host, toolchain, source and inputs of a run.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	// Kernels is the kernel backend per width class the engine under
	// test runs, so a kernel flip shows as a cause of a shift.
	Kernels string `json:"kernels"`
}

func (f fingerprint) line() string {
	return fmt.Sprintf("fingerprint: gomaxprocs=%d numcpu=%d cpu=%q go=%s commit=%s workload=%s seed=%d trace=%v",
		f.GOMAXPROCS, f.NumCPU, f.CPU, f.GoVersion, f.Commit, f.Workload, f.Seed, f.Trace)
}

// host is the part of the fingerprint two comparable runs must share.
func (f fingerprint) host() string {
	return fmt.Sprintf("%d/%d/%s/%s", f.GOMAXPROCS, f.NumCPU, f.CPU, f.GoVersion)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the VCS revision the binary was built from, or, in a
// checkout without version control, a hash of the module sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
			return nil
		})
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// sampled is one printed metric: its value and how many samples it
// summarises.
type sampled struct {
	value   float64
	samples int
}

// report collects one run's metrics, oracle verdicts and spans.
type report struct {
	cfg       *config
	fp        fingerprint
	e2e       map[string]sampled
	failFrac  sampled
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
	tr        *tracer
	notes     []string
}

func newReport(cfg *config) *report {
	r := &report{
		cfg: cfg,
		fp: fingerprint{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(),
			GoVersion: runtime.Version(), Commit: commit(),
			Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		},
		e2e:    make(map[string]sampled),
		layers: make(map[string]float64),
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// fail records an oracle rejection; the run's result turns incorrect.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ops records the timed phase's outcome counts.
func (r *report) ops(attempted, failed int) {
	r.attempted, r.failed = attempted, failed
	r.failFrac = sampled{0, attempted}
	if attempted > 0 {
		r.failFrac.value = float64(failed) / float64(attempted)
	}
}

// latencies records the timed phase's end-to-end metrics from the log of
// its completed ops. The phase is cut into rateWindows equal windows by
// op completion time, and the metrics pool the half of the windows in
// which the host stole the least CPU time from this machine: ops_per_s is
// their ops over their length, p50_ms and p99_ms the percentiles of their
// ops' latencies. Steal on a shared host comes in bursts that slow whole
// windows by up to 2×; the windows are chosen by the measured steal, not
// by their own figures, so a slowdown the program causes still shows in
// full. With no steal figures every window counts. The whole-phase
// figures and each window's steal, rate and percentiles are printed as
// notes.
func (r *report) latencies(wc *windowClock, elapsed time.Duration, ops *opLog) {
	wc.stop()
	byWin := make([][]float64, rateWindows)
	for k, d := range ops.done {
		if i := int(d.Sub(wc.start) / wc.win); i >= 0 && i < rateWindows {
			byWin[i] = append(byWin[i], ops.lat[k])
		}
	}
	order := make([]int, rateWindows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return wc.steal[order[a]] < wc.steal[order[b]] })
	keep := order
	if wc.steal[order[0]] != wc.steal[order[rateWindows-1]] {
		keep = order[:rateWindows/2]
	}
	var pooled []float64
	for _, i := range keep {
		pooled = append(pooled, byWin[i]...)
	}
	n := len(pooled)
	r.e2e["ops_per_s"] = sampled{float64(n) / (wc.win.Seconds() * float64(len(keep))), n}
	r.e2e["p50_ms"] = sampled{quantile(pooled, 0.50) * 1e3, n}
	r.e2e["p99_ms"] = sampled{quantile(pooled, 0.99) * 1e3, n}

	rate, p50, p99 := make([]float64, rateWindows), make([]float64, rateWindows), make([]float64, rateWindows)
	for i, w := range byWin {
		rate[i] = float64(len(w)) / wc.win.Seconds()
		p50[i], p99[i] = quantile(w, 0.50)*1e3, quantile(w, 0.99)*1e3
	}
	r.notes = append(r.notes,
		fmt.Sprintf("whole phase: %d ops in %.3g s, %.4g ops/s, p50 %.4g ms, p99 %.4g ms; metrics pool windows %v",
			len(ops.lat), elapsed.Seconds(), float64(len(ops.lat))/elapsed.Seconds(), quantile(ops.lat, 0.50)*1e3, quantile(ops.lat, 0.99)*1e3, keep),
		fmt.Sprintf("windows: steal %.3f; ops/s %.4g; p50 ms %.4g; p99 ms %.4g", wc.steal, rate, p50, p99))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() result {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	if r.cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = jsonMetric{finite(r.layers[m.name]), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = jsonMetric{finite(r.e2e[m.name].value), m.unit}
		}
	}
	return res
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// print writes the human-readable part of the output: kernels, every
// metric with unit and sample count, notes and (traced) self times.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "kernels: %s\n", r.fp.Kernels)
	for _, m := range append(endToEnd, printedOnly...) {
		if s, ok := r.e2e[m.name]; ok {
			fmt.Fprintf(w, "metric %-26s %14.6g %-6s n=%d\n", m.name, s.value, m.unit, s.samples)
		}
	}
	fmt.Fprintf(w, "metric %-26s %14.6g %-6s n=%d (failed %d of %d attempted)\n",
		"fail_frac", r.failFrac.value, "ratio", r.failFrac.samples, r.failed, r.attempted)
	if r.cfg.trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer  %-26s %14.6g %s\n", m.name, r.layers[m.name], m.unit)
		}
		r.tr.printSelf(w)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// record is what a run leaves in --out for later comparison.
type record struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Result      result             `json:"result"`
	Samples     map[string]int     `json:"samples"`
	Notes       []string           `json:"notes,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
	SelfUs      map[string]float64 `json:"self_us_per_op,omitempty"`
}

func (r *report) save(res result) error {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("record dir: %w", err)
	}
	rec := record{Fingerprint: r.fp, Result: res, Samples: make(map[string]int), Notes: r.notes, Problems: r.problems}
	for n, s := range r.e2e {
		rec.Samples[n] = s.samples
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.cfg.workload, r.cfg.seed, boolInt(r.cfg.trace))
	if r.tr != nil {
		rec.SelfUs = r.tr.selfPerOp()
		if err := writeJSON(filepath.Join(r.cfg.outDir, base+".spans.json"), r.tr.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(r.cfg.outDir, base+".json"), rec)
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runCompare prints old-vs-new metric ratios for two run records. Runs
// from different hosts are refused; differing kernel selections are
// reported first, since a kernel flip alone can shift every timing.
func runCompare(arg string, stdout, stderr io.Writer) int {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok {
		fmt.Fprintln(stderr, "perfbench: --compare wants OLD,NEW")
		return 2
	}
	var recs [2]record
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: read %s: %v\n", p, err)
			return 2
		}
	}
	o, n := recs[0].Fingerprint, recs[1].Fingerprint
	if o.host() != n.host() {
		fmt.Fprintf(stderr, "perfbench: refusing to compare runs from different hosts: %s vs %s\n", o.host(), n.host())
		return 3
	}
	if o.Workload != n.Workload || o.Trace != n.Trace {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s/trace=%v with %s/trace=%v\n", o.Workload, o.Trace, n.Workload, n.Trace)
		return 3
	}
	if o.Kernels != n.Kernels {
		fmt.Fprintf(stdout, "kernel selection differs: %q -> %q\n", o.Kernels, n.Kernels)
	}
	names := make([]string, 0, len(recs[1].Result.Metrics))
	for name := range recs[1].Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ov, nv := recs[0].Result.Metrics[name].Value, recs[1].Result.Metrics[name].Value
		ratio := math.NaN()
		if ov != 0 {
			ratio = nv / ov
		}
		fmt.Fprintf(stdout, "%-26s %14.6g -> %14.6g  x%.3f %s\n", name, ov, nv, ratio, recs[1].Result.Metrics[name].Unit)
	}
	return 0
}
