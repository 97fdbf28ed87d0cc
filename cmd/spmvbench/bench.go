package main

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/method"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// benchRecord is one machine-readable engine measurement, emitted by
// `spmvbench -json` so successive PRs can track the perf trajectory in
// BENCH_*.json files. Method, matrix, seed, K, nrhs, and op identify
// the measurement; schedule names the engine variant the build ran on.
// Op is empty for the forward product and "transpose" for y ← Aᵀx
// records (-transpose), which reuse the forward plan's packets with the
// phases reversed — so the communication columns are shared. NsPerOp
// times one whole block multiply (nrhs=1: one Multiply); NsPerColumn =
// NsPerOp/nrhs is the per-RHS throughput figure. Packets and MaxMsgs
// are per multiply regardless of nrhs — the block path widens payloads,
// not the message count — so CommVolume (words moved per block
// multiply) is VolumeWords·nrhs. Kernel is the -kernels selector the
// record ran under — empty for the scalar reference, so baselines from
// PRs that predate kernel selection pair against scalar records — and
// KernelChoice is the backend "auto" resolved to for this nrhs
// (informational; benchdiff keys on Kernel only). SerialNs anchors the
// record against "not parallel": nrhs serial CSR.MulVec calls on the
// same matrix (on its transpose, built once outside the timer, for
// transpose records), and SpeedupVsSerial = SerialNs / NsPerOp.
type benchRecord struct {
	Op           string `json:"op,omitempty"`
	Kernel       string `json:"kernel,omitempty"`
	KernelChoice string `json:"kernel_choice,omitempty"`

	Method      string  `json:"method"`
	Matrix      string  `json:"matrix"`
	Seed        int64   `json:"seed"`
	K           int     `json:"k"`
	NRHS        int     `json:"nrhs"`
	Schedule    string  `json:"schedule"`
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	NNZ         int     `json:"nnz"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerColumn float64 `json:"ns_per_column"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Packets     int     `json:"packets_per_multiply"`
	MaxMsgs     int     `json:"max_msgs"`
	VolumeWords int     `json:"volume_words"`
	CommVolume  int     `json:"comm_volume"`

	SerialNs        float64 `json:"serial_ns"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// serialNs times one serial CSR.MulVec of a, the anchor every record
// of that direction is measured against.
func serialNs(a *sparse.CSR) float64 {
	x, y := make([]float64, a.Cols), make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	return float64(testing.Benchmark(func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			a.MulVec(x, y)
		}
	}).NsPerOp())
}

func scheduleOf(b method.Build) string {
	switch {
	case b.Routed():
		return "routed"
	case b.Dist.Fused:
		return "fused"
	default:
		return "twophase"
	}
}

// runJSONBench benchmarks steady-state Multiply (and, for nrhs > 1,
// MultiplyBlock) for every requested registry method at each (K, nrhs)
// and writes a JSON array to w; with transpose set it additionally
// benchmarks MultiplyTranspose / MultiplyTransposeBlock on the same
// engines, emitting op="transpose" records the benchdiff gate pairs
// separately from the forward ones. All builds share one pipeline, so
// common prerequisites are computed once across the sweep.
//
// kernels lists the -kernels selectors to sweep per engine: backend
// names install that backend for every width class, "auto" runs the
// plan-time autotuner (decisions memoized in the pipeline, so both
// K-sweep repeats and rebuilt engines reuse the first verdict). Empty
// means scalar only. Each selector reuses the same engine — selection
// swaps are cheap; plan compilation is not.
func runJSONBench(w io.Writer, cfg harness.Config, methods []string, nrhsList []int, transpose bool, kernels []string) error {
	ks := cfg.Ks
	if len(ks) == 0 {
		ks = []int{4, 16, 64}
	}
	if len(nrhsList) == 0 {
		nrhsList = []int{1}
	}
	if len(kernels) == 0 {
		kernels = []string{"scalar"}
	}
	n := int(320000 * cfg.Scale)
	if n < 1000 {
		n = 1000
	}
	const matrixName = "powerlaw"
	a := gen.PowerLaw(gen.PowerLawConfig{
		Rows: n, Cols: n, NNZ: 10 * n, Beta: 0.5,
		DenseRows: 2, DenseMax: n / 16, Symmetric: true, Locality: 0.9,
	}, cfg.Seed)
	maxNRHS := 1
	for _, nr := range nrhsList {
		if nr > maxNRHS {
			maxNRHS = nr
		}
	}
	// serial[op] is one serial MulVec in that record direction.
	serial := map[string]float64{"": serialNs(a)}
	if transpose {
		serial["transpose"] = serialNs(a.Transpose())
	}
	X := make([]float64, a.Cols*maxNRHS)
	Y := make([]float64, a.Rows*maxNRHS)
	for i := range X {
		X[i] = float64(i%13) - 6
	}

	opt := method.Options{Seed: cfg.Seed, Pipeline: method.NewPipeline(), Ks: ks}
	var recs []benchRecord
	for _, k := range ks {
		for _, name := range methods {
			b, err := method.BuildByName(name, a, k, opt)
			if err != nil {
				return err
			}
			eng, err := spmv.New(b)
			if err != nil {
				return fmt.Errorf("%s K=%d: %w", name, k, err)
			}
			cs := eng.ScheduleStats()
			var kernelKey string
			var kernelRep spmv.KernelReport
			record := func(op string, nrhs int, res testing.BenchmarkResult) {
				choice := ""
				if kernelKey == "auto" {
					choice = kernelRep.For(nrhs)
				}
				ns, serialOp := float64(res.NsPerOp()), serial[op]*float64(nrhs)
				recs = append(recs, benchRecord{
					Op:           op,
					Kernel:       kernelKey,
					KernelChoice: choice,

					Method:      b.Method,
					Matrix:      matrixName,
					Seed:        cfg.Seed,
					K:           k,
					NRHS:        nrhs,
					Schedule:    scheduleOf(b),
					Rows:        a.Rows,
					Cols:        a.Cols,
					NNZ:         a.NNZ(),
					NsPerOp:     ns,
					NsPerColumn: ns / float64(nrhs),
					AllocsPerOp: res.AllocsPerOp(),
					BytesPerOp:  res.AllocedBytesPerOp(),
					Packets:     cs.TotalMsgs,
					MaxMsgs:     cs.MaxSendMsgs,
					VolumeWords: cs.TotalVolume,
					CommVolume:  cs.TotalVolume * nrhs,

					SerialNs:        serialOp,
					SpeedupVsSerial: serialOp / ns,
				})
			}
			for _, sel := range kernels {
				tune := spmv.TuneConfig{}
				switch sel {
				case "auto":
					kernelKey = "auto"
					tune.Widths = nrhsList
					tune.Cache = opt.Pipeline.KernelCache(a, b.Method, k, cfg.Seed, 0)
				case "scalar":
					// The scalar reference keys as "" so baselines from PRs
					// that predate kernel selection pair against it.
					kernelKey = ""
					tune.Force = "scalar"
				default:
					kernelKey = sel
					tune.Force = sel
				}
				rep, err := eng.Autotune(tune)
				if err != nil {
					eng.Close()
					return fmt.Errorf("%s K=%d -kernels %s: %w", name, k, sel, err)
				}
				kernelRep = rep

				for _, nrhs := range nrhsList {
					var res testing.BenchmarkResult
					if nrhs == 1 {
						x, y := X[:a.Cols], Y[:a.Rows]
						res = testing.Benchmark(func(bm *testing.B) {
							bm.ReportAllocs()
							for i := 0; i < bm.N; i++ {
								eng.Multiply(x, y)
							}
						})
					} else {
						Xb, Yb := X[:a.Cols*nrhs], Y[:a.Rows*nrhs]
						eng.MultiplyBlock(Xb, Yb, nrhs) // size the block buffers
						res = testing.Benchmark(func(bm *testing.B) {
							bm.ReportAllocs()
							for i := 0; i < bm.N; i++ {
								eng.MultiplyBlock(Xb, Yb, nrhs)
							}
						})
					}
					record("", nrhs, res)
					if !transpose {
						continue
					}
					// Transpose sweep on the same engine: x lives in the row
					// space, y in the column space. The square bench matrix lets
					// the X/Y scratch serve both directions.
					if nrhs == 1 {
						x, y := X[:a.Rows], Y[:a.Cols]
						eng.MultiplyTranspose(x, y) // compile the transpose plan
						res = testing.Benchmark(func(bm *testing.B) {
							bm.ReportAllocs()
							for i := 0; i < bm.N; i++ {
								eng.MultiplyTranspose(x, y)
							}
						})
					} else {
						Xb, Yb := X[:a.Rows*nrhs], Y[:a.Cols*nrhs]
						eng.MultiplyTransposeBlock(Xb, Yb, nrhs)
						res = testing.Benchmark(func(bm *testing.B) {
							bm.ReportAllocs()
							for i := 0; i < bm.N; i++ {
								eng.MultiplyTransposeBlock(Xb, Yb, nrhs)
							}
						})
					}
					record("transpose", nrhs, res)
				}
			}
			eng.Close()
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
