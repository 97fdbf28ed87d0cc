package spmv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
)

func benchMatrix() *sparse.CSR {
	return gen.PowerLaw(gen.PowerLawConfig{
		Rows: 20000, Cols: 20000, NNZ: 200000, Beta: 0.5,
		DenseRows: 2, DenseMax: 1500, Symmetric: true, Locality: 0.9,
	}, 1)
}

func benchSetup(b *testing.B, k int) (eng *Engine, routed *RoutedEngine, x, y []float64) {
	b.Helper()
	a := benchMatrix()
	opt := baselines.Options{Seed: 1}
	rows := baselines.RowwiseParts(a, k, opt)
	oneD := baselines.Rowwise1DFromParts(a, rows, k)
	d := core.Balanced(a, oneD.XPart, oneD.YPart, k, core.BalanceConfig{})
	var err error
	eng, err = NewEngine(d)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	routed, err = NewRoutedEngine(d, core.NewMesh(k))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(routed.Close)
	r := rand.New(rand.NewSource(2))
	x = make([]float64, a.Cols)
	for i := range x {
		x[i] = r.Float64()
	}
	y = make([]float64, a.Rows)
	return eng, routed, x, y
}

func benchTwoPhaseSetup(b *testing.B, k int) (eng *Engine, x, y []float64) {
	b.Helper()
	a := benchMatrix()
	d := baselines.FineGrain2D(a, k, baselines.Options{Seed: 1})
	eng, err := NewEngine(d)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	x = make([]float64, a.Cols)
	y = make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	return eng, x, y
}

func BenchmarkEngineFusedK16(b *testing.B) {
	eng, _, x, y := benchSetup(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Multiply(x, y)
	}
}

func BenchmarkEngineFusedK64(b *testing.B) {
	eng, _, x, y := benchSetup(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Multiply(x, y)
	}
}

func BenchmarkEngineRoutedK64(b *testing.B) {
	_, routed, x, y := benchSetup(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routed.Multiply(x, y)
	}
}

func BenchmarkEngineTwoPhaseK64(b *testing.B) {
	eng, x, y := benchTwoPhaseSetup(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Multiply(x, y)
	}
}

// BenchmarkMultiplyBlock compares one nrhs-wide block multiply against
// nrhs sequential single multiplies for every schedule: the block path
// sends one packet per peer per phase regardless of nrhs and streams each
// matrix value once per nrhs columns, so per-column cost should drop well
// below the sequential baseline (the PR acceptance bar is ≥2× at nrhs=8).
func BenchmarkMultiplyBlock(b *testing.B) {
	const k = 16
	for _, nrhs := range []int{1, 4, 8, 16} {
		fused, routed, x, _ := benchSetup(b, k)
		twoPhase, _, _ := benchTwoPhaseSetup(b, k)
		a := fused.d.A
		X := make([]float64, a.Cols*nrhs)
		Y := make([]float64, a.Rows*nrhs)
		for i := range X {
			X[i] = x[i/nrhs]
		}
		for name, eng := range map[string]interface {
			Multiply(x, y []float64) error
			MultiplyBlock(X, Y []float64, nrhs int) error
		}{"fused": fused, "twophase": twoPhase, "routed": routed} {
			b.Run(fmt.Sprintf("%s/block/nrhs=%d", name, nrhs), func(b *testing.B) {
				eng.MultiplyBlock(X, Y, nrhs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.MultiplyBlock(X, Y, nrhs)
				}
			})
			b.Run(fmt.Sprintf("%s/seq/nrhs=%d", name, nrhs), func(b *testing.B) {
				y := Y[:a.Rows]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for c := 0; c < nrhs; c++ {
						eng.Multiply(x, y)
					}
				}
			})
		}
	}
}

// BenchmarkCompileRows times plan compilation's slot lookup. The
// row→slot resolution used to go through a map[int]int built per group;
// the binary search over the sorted, deduplicated row list replaced it
// (see compileRows), cutting build time and the transient allocation.
func BenchmarkCompileRows(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	// Power-law-ish row popularity: many nonzeros concentrated on few
	// rows, the regime the suite's matrices put compileRows in.
	const nnz = 100000
	nzs := make([]localNZ, nnz)
	for i := range nzs {
		row := int(20000 * r.Float64() * r.Float64())
		src := r.Intn(20000)
		if r.Intn(4) == 0 {
			src = -1 - r.Intn(5000)
		}
		nzs[i] = localNZ{row: row, src: src, val: r.NormFloat64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileRows(nzs)
	}
}

// BenchmarkMultiplySteadyState is the perf-trajectory benchmark tracked
// across PRs: every schedule at K ∈ {4,16,64}, steady-state (engines built
// outside the timed loop). All variants must report 0 allocs/op.
func BenchmarkMultiplySteadyState(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("fused/K=%d", k), func(b *testing.B) {
			eng, _, x, y := benchSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Multiply(x, y)
			}
		})
		b.Run(fmt.Sprintf("twophase/K=%d", k), func(b *testing.B) {
			eng, x, y := benchTwoPhaseSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Multiply(x, y)
			}
		})
		b.Run(fmt.Sprintf("routed/K=%d", k), func(b *testing.B) {
			_, routed, x, y := benchSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routed.Multiply(x, y)
			}
		})
	}
}

// BenchmarkMultiplyTransposeSteadyState tracks the transpose kernels
// across PRs next to BenchmarkMultiplySteadyState: same schedules, same
// matrix, y ← Aᵀx via the reversed plan. All variants must report
// 0 allocs/op (the transpose plan compiles outside the timed loop).
func BenchmarkMultiplyTransposeSteadyState(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("fused/K=%d", k), func(b *testing.B) {
			eng, _, x, y := benchSetup(b, k)
			eng.MultiplyTranspose(x, y) // square matrix: buffers serve both
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MultiplyTranspose(x, y)
			}
		})
		b.Run(fmt.Sprintf("twophase/K=%d", k), func(b *testing.B) {
			eng, x, y := benchTwoPhaseSetup(b, k)
			eng.MultiplyTranspose(x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MultiplyTranspose(x, y)
			}
		})
		b.Run(fmt.Sprintf("routed/K=%d", k), func(b *testing.B) {
			_, routed, x, y := benchSetup(b, k)
			routed.MultiplyTranspose(x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routed.MultiplyTranspose(x, y)
			}
		})
	}
}

// noLocalityMatrix is a ~90k-row social-network stand-in: power-law
// degrees, ~5 nonzeros per row, and no diagonal locality, so every
// processor's x reads scatter over the whole vector. benchMatrix's
// Locality 0.9 hides that regime.
func noLocalityMatrix() *sparse.CSR {
	return gen.PowerLaw(gen.PowerLawConfig{
		Rows: 90000, Cols: 90000, NNZ: 450000, Beta: 0.75,
		DenseRows: 1, DenseMax: 2300, Symmetric: true, Locality: 0,
	}, 1)
}

// BenchmarkMultiplyNoLocality runs the fused s2D engine at K=4 (a 1D
// partition balanced by core.Balanced, as benchSetup builds it) on
// noLocalityMatrix at nrhs 1 and 8, next to serial CSR.MulVec. Each
// engine sub-benchmark reports speedup_vs_serial: nrhs serial MulVec
// calls, timed as the median of 15 before the timer, over its ns/op.
func BenchmarkMultiplyNoLocality(b *testing.B) {
	const k = 4
	a := noLocalityMatrix()
	rows := baselines.RowwiseParts(a, k, baselines.Options{Seed: 1})
	oneD := baselines.Rowwise1DFromParts(a, rows, k)
	eng, err := NewEngine(core.Balanced(a, oneD.XPart, oneD.YPart, k, core.BalanceConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	r := rand.New(rand.NewSource(2))
	x := make([]float64, a.Cols*8)
	for i := range x {
		x[i] = r.Float64()
	}
	y := make([]float64, a.Rows*8)
	serial := make([]time.Duration, 15)
	for i := range serial {
		t0 := time.Now()
		a.MulVec(x[:a.Cols], y[:a.Rows])
		serial[i] = time.Since(t0)
	}
	slices.Sort(serial)
	serialNs := float64(serial[len(serial)/2].Nanoseconds())

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.MulVec(x[:a.Cols], y[:a.Rows])
		}
	})
	for _, nrhs := range []int{1, 8} {
		b.Run(fmt.Sprintf("engine/K=%d/nrhs=%d", k, nrhs), func(b *testing.B) {
			X, Y := x[:a.Cols*nrhs], y[:a.Rows*nrhs]
			eng.MultiplyBlock(X, Y, nrhs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.MultiplyBlock(X, Y, nrhs)
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(serialNs*float64(nrhs)/perOp, "speedup_vs_serial")
		})
	}
}
