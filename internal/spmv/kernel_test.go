package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/method"
	"repro/internal/sparse"
)

// kernelWidths is the equivalence sweep: every specialized width (1, 2,
// 4, 8), the generic class's probe neighborhood (3, 5), and an odd width
// past the widest specialization (9).
var kernelWidths = []int{1, 2, 3, 4, 5, 8, 9}

// kernelSurfaces is one backend's outputs on all four multiply
// surfaces: forward and transpose, single-vector and blocked at every
// width in kernelWidths.
type kernelSurfaces struct {
	fwd  []float64
	fwdT []float64
	blk  map[int][]float64
	blkT map[int][]float64
}

// runKernelSurfaces force-installs the named backend and runs every
// surface into fresh outputs.
func runKernelSurfaces(t *testing.T, eng Multiplier, kernel string, a *sparse.CSR, X, XT []float64) kernelSurfaces {
	t.Helper()
	if _, err := eng.Autotune(TuneConfig{Force: kernel}); err != nil {
		t.Fatalf("force %s: %v", kernel, err)
	}
	s := kernelSurfaces{
		fwd:  make([]float64, a.Rows),
		fwdT: make([]float64, a.Cols),
		blk:  make(map[int][]float64, len(kernelWidths)),
		blkT: make(map[int][]float64, len(kernelWidths)),
	}
	if err := eng.Multiply(X[:a.Cols], s.fwd); err != nil {
		t.Fatalf("%s Multiply: %v", kernel, err)
	}
	if err := eng.MultiplyTranspose(XT[:a.Rows], s.fwdT); err != nil {
		t.Fatalf("%s MultiplyTranspose: %v", kernel, err)
	}
	for _, nrhs := range kernelWidths {
		y := make([]float64, a.Rows*nrhs)
		if err := eng.MultiplyBlock(X[:a.Cols*nrhs], y, nrhs); err != nil {
			t.Fatalf("%s MultiplyBlock(nrhs=%d): %v", kernel, nrhs, err)
		}
		s.blk[nrhs] = y
		yt := make([]float64, a.Cols*nrhs)
		if err := eng.MultiplyTransposeBlock(XT[:a.Rows*nrhs], yt, nrhs); err != nil {
			t.Fatalf("%s MultiplyTransposeBlock(nrhs=%d): %v", kernel, nrhs, err)
		}
		s.blkT[nrhs] = yt
	}
	return s
}

// compareVec checks got against want bitwise.
func compareVec(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] || math.Signbit(got[i]) != math.Signbit(want[i]) {
			t.Fatalf("%s: [%d] = %x, scalar %x (bitwise contract)", label, i, got[i], want[i])
		}
	}
}

// equivFixture is one seeded matrix with forward and transpose inputs
// wide enough for the widest sweep width.
type equivFixture struct {
	a     *sparse.CSR
	x, xt []float64
}

// equivFixtures draws the seeded rectangular and square fixtures the
// backend-equivalence and pinned-bits tests share.
func equivFixtures() (rect, square equivFixture) {
	r := rand.New(rand.NewSource(42))
	maxW := kernelWidths[len(kernelWidths)-1]
	rect = equivFixture{a: randomMatrix(r, 150, 110, 1700)}
	rect.x = randomVector(r, rect.a.Cols*maxW)
	rect.xt = randomVector(r, rect.a.Rows*maxW)
	square = equivFixture{a: randomMatrix(r, 130, 130, 1700)}
	square.x = randomVector(r, square.a.Cols*maxW)
	square.xt = randomVector(r, square.a.Rows*maxW)
	return rect, square
}

// equivEngine builds the named method on the rectangular fixture — or,
// for registry methods (reordering-based) that only accept square
// matrices, on the square one — and returns its engine, closed at
// cleanup, with the fixture it runs on.
func equivEngine(t *testing.T, name string, k int, opt method.Options, rect, square equivFixture) (Multiplier, equivFixture) {
	t.Helper()
	fx := rect
	b, err := method.BuildByName(name, fx.a, k, opt)
	if err != nil {
		fx = square
		if b, err = method.BuildByName(name, fx.a, k, opt); err != nil {
			t.Fatalf("build: %v", err)
		}
	}
	eng, err := New(b)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	t.Cleanup(eng.Close)
	return eng, fx
}

// TestKernelBackendEquivalence is the exhaustive backend contract:
// every kernel backend, on every registry method's build, at K ∈ {4,16}
// and nrhs ∈ {1,2,3,4,5,8,9}, must reproduce the scalar reference on
// all four multiply surfaces, bitwise. The matrix is rectangular so a transposed
// dimension mix-up cannot cancel out.
func TestKernelBackendEquivalence(t *testing.T) {
	rect, square := equivFixtures()
	for _, k := range []int{4, 16} {
		opt := method.Options{Seed: 7, Pipeline: method.NewPipeline()}
		for _, name := range method.Names() {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				eng, fx := equivEngine(t, name, k, opt, rect, square)
				a, X, XT := fx.a, fx.x, fx.xt
				ref := runKernelSurfaces(t, eng, "scalar", a, X, XT)
				for _, kern := range KernelNames() {
					if kern == "scalar" {
						continue
					}
					got := runKernelSurfaces(t, eng, kern, a, X, XT)
					compareVec(t, kern+" Multiply", got.fwd, ref.fwd)
					compareVec(t, kern+" MultiplyTranspose", got.fwdT, ref.fwdT)
					for _, nrhs := range kernelWidths {
						compareVec(t, fmt.Sprintf("%s MultiplyBlock nrhs=%d", kern, nrhs),
							got.blk[nrhs], ref.blk[nrhs])
						compareVec(t, fmt.Sprintf("%s MultiplyTransposeBlock nrhs=%d", kern, nrhs),
							got.blkT[nrhs], ref.blkT[nrhs])
					}
					// The nrhs=1 block layout is the single-vector layout, so
					// MultiplyBlock(·, ·, 1) must equal Multiply bitwise under
					// every backend.
					compareVec(t, kern+" MultiplyBlock(1) vs Multiply", got.blk[1], got.fwd)
				}
			})
		}
	}
}

// TestKernelBackendsZeroAlloc pins the 0-alloc steady-state contract
// for every backend on every schedule: once a width's buffers exist and
// the backend is installed, no multiply
// surface may touch the heap.
func TestKernelBackendsZeroAlloc(t *testing.T) {
	fused, twoPhase, routed, x, y := allocFixtures(t)
	engines := []struct {
		name string
		eng  Multiplier
	}{
		{"fused", fused},
		{"twophase", twoPhase},
		{"routed", routed},
	}
	const nrhs = 8
	for _, ec := range engines {
		X := make([]float64, len(x)*nrhs)
		Y := make([]float64, len(y)*nrhs)
		copy(X, x)
		for _, kern := range KernelNames() {
			t.Run(ec.name+"/"+kern, func(t *testing.T) {
				if _, err := ec.eng.Autotune(TuneConfig{Force: kern}); err != nil {
					t.Fatal(err)
				}
				// Warm every surface: block buffers size on first use and the
				// transpose plan compiles lazily.
				ec.eng.Multiply(x, y)
				ec.eng.MultiplyBlock(X, Y, nrhs)
				ec.eng.MultiplyTranspose(y, x)
				ec.eng.MultiplyTransposeBlock(Y, X, nrhs)
				checks := []struct {
					label string
					f     func()
				}{
					{"Multiply", func() { ec.eng.Multiply(x, y) }},
					{"MultiplyBlock", func() { ec.eng.MultiplyBlock(X, Y, nrhs) }},
					{"MultiplyTranspose", func() { ec.eng.MultiplyTranspose(y, x) }},
					{"MultiplyTransposeBlock", func() { ec.eng.MultiplyTransposeBlock(Y, X, nrhs) }},
				}
				for _, c := range checks {
					if n := testing.AllocsPerRun(50, c.f); n != 0 {
						t.Errorf("%s allocates %v times per call under %s, want 0", c.label, n, kern)
					}
				}
			})
		}
	}
}

// TestKernelBackendsOverwriteDirtyOutput pins the overwrite contract
// for every backend: y is output-only, so garbage (including NaN, which
// would propagate through any accidental accumulation) must not leak
// into the result.
func TestKernelBackendsOverwriteDirtyOutput(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	a := randomMatrix(r, 120, 90, 1100)
	opt := method.Options{Seed: 3, Pipeline: method.NewPipeline()}
	const nrhs = 4
	maxW := kernelWidths[len(kernelWidths)-1]
	X := randomVector(r, a.Cols*maxW)
	XT := randomVector(r, a.Rows*maxW)
	for _, name := range []string{"s2D", "2D", "s2D-b"} {
		b, err := method.BuildByName(name, a, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		ref := runKernelSurfaces(t, eng, "scalar", a, X, XT)
		dirty := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.NaN()
			}
			return out
		}
		for _, kern := range KernelNames() {
			if _, err := eng.Autotune(TuneConfig{Force: kern}); err != nil {
				t.Fatal(err)
			}
			y := dirty(a.Rows)
			if err := eng.Multiply(X[:a.Cols], y); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty Multiply", y, ref.fwd)
			yb := dirty(a.Rows * nrhs)
			if err := eng.MultiplyBlock(X[:a.Cols*nrhs], yb, nrhs); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty MultiplyBlock", yb, ref.blk[nrhs])
			yt := dirty(a.Cols)
			if err := eng.MultiplyTranspose(XT[:a.Rows], yt); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty MultiplyTranspose", yt, ref.fwdT)
			ytb := dirty(a.Cols * nrhs)
			if err := eng.MultiplyTransposeBlock(XT[:a.Rows*nrhs], ytb, nrhs); err != nil {
				t.Fatal(err)
			}
			compareVec(t, name+"/"+kern+" dirty MultiplyTransposeBlock", ytb, ref.blkT[nrhs])
		}
	}
}
