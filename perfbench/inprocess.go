package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// In-process workload parameters (see WORKLOADS.md).
const (
	engineK = 4

	prMatrix  = "com-Youtube"
	prScale   = 0.08
	prMethod  = "s2D"
	prDamping = 0.85
	prTol     = 1e-10
	prMaxIter = 1000
	// prL1Tol bounds the L1 distance between an engine solve and the
	// serial reference solve.
	prL1Tol = 1e-9

	ssMatrix = "c-big"
	ssScale  = 0.28
	ssMethod = "s2D-b"
	ssNRHS   = 8
	// ssSteps is how many block steps one subspace solve runs from the
	// seeded start block before starting over.
	ssSteps = 10
	// ssRelTol bounds each block entry's distance from the serial
	// per-column reference, relative to the block's largest entry.
	ssRelTol = 1e-9

	// mulRelTol bounds a first multiply's distance from serial MulVec,
	// relative to the largest output entry.
	mulRelTol = 1e-10

	inProcessSetups = 3
)

// columnStochastic scales each column of g to sum to 1; dangling columns
// stay empty and the damping term covers them.
func columnStochastic(g *sparse.CSR) *sparse.CSR {
	colDeg := g.ColDegrees()
	m := g.Clone()
	for p, j := range m.ColIdx {
		m.Val[p] = 1 / float64(colDeg[j])
	}
	return m
}

func suiteMatrix(name string, scale float64, seed int64) (*sparse.CSR, error) {
	spec, ok := gen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("no suite matrix %q", name)
	}
	return spec.Generate(scale, seed), nil
}

// timedPhase runs op until d has elapsed (ops already started finish).
func timedPhase(d time.Duration, op func()) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		op()
	}
	return time.Since(start)
}

// phaseLengths splits the timed budget: untraced runs measure for all of
// it; traced runs measure half untraced (the overhead baseline) and half
// traced.
func phaseLengths(cfg *config) (untraced, traced time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return total, 0
	}
	return total / 2, total - total/2
}

// runPageRank is the pagerank workload: repeated damped power-iteration
// solves on the s2D engine. One op is one power iteration.
func runPageRank(cfg *config, rep *report) error {
	g, err := suiteMatrix(prMatrix, prScale*cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	m := columnStochastic(g)
	g = nil
	n := m.Rows

	// Oracle: the serial CSR.MulVec solve and one serial multiply.
	ref, refRes := solver.PageRank(m.MulVec, n, prDamping, prTol, prMaxIter)
	if !refRes.Converged {
		return fmt.Errorf("serial reference did not converge in %d iterations", prMaxIter)
	}
	refIters := refRes.Iterations + 1
	x0 := randomVec(rand.New(rand.NewSource(cfg.seed)), n)
	y0 := make([]float64, n)
	m.MulVec(x0, y0)
	if cfg.corrupt {
		ref[0] += 1e-6
		y0[0] += 1e-6
	}
	y := make([]float64, n)
	base := liveHeap()

	tr := rep.tr
	var b method.Build
	var eng spmv.Multiplier
	setup := func() setupResult {
		root := tr.id()
		t0 := time.Now()
		var err error
		b, eng, err = buildTimed(rep, root, prMethod, m, engineK, method.Options{Seed: cfg.seed, Pipeline: method.NewPipeline()})
		if err != nil {
			return setupResult{err: err}
		}
		tf := tr.now()
		err = eng.Multiply(x0, y)
		took := time.Since(t0)
		tr.add(0, root, 0, "spmv.first_call", tf, tr.now())
		tr.add(root, 0, 0, "setup", tr.at(t0), tr.now())
		if err != nil {
			return setupResult{err: err}
		}
		if diff, scale := maxAbsDiff(y, y0); diff > mulRelTol*scale {
			rep.fail("first multiply differs from serial MulVec by %.3g (scale %.3g)", diff, scale)
		}
		return setupResult{took: took}
	}
	if err := runSetups(rep, inProcessSetups, base, setup, func() { eng.Close() }); err != nil {
		return err
	}
	defer eng.Close()
	rep.fp.Kernels = eng.KernelReport().String()

	// The timed phase. stamps[i] is when iteration i's multiply started;
	// an iteration ends when the next one starts or the solve returns.
	ops := newOpLog(1 << 15)
	stamps := make([]time.Time, 0, prMaxIter+1)
	mulEnd := make([]time.Time, 0, prMaxIter+1)
	phases := make([]spmv.PhaseTimings, 0, prMaxIter+1)
	sampler, _ := eng.(spmv.PhaseSampler)
	var first []float64
	attempted, failed, solves := 0, 0, 0
	traced := false
	var opLat []float64
	solve := func() {
		stamps, mulEnd, phases = stamps[:0], mulEnd[:0], phases[:0]
		var mulErr error
		r, res := solver.PageRank(func(x, y []float64) {
			stamps = append(stamps, time.Now())
			if err := eng.Multiply(x, y); err != nil && mulErr == nil {
				mulErr = err
			}
			if traced {
				mulEnd = append(mulEnd, time.Now())
				ph, _ := sampler.LastPhases()
				phases = append(phases, ph)
			}
		}, n, prDamping, prTol, prMaxIter)
		end := time.Now()
		iters := len(stamps)
		for i, s := range stamps {
			next := end
			if i+1 < iters {
				next = stamps[i+1]
			}
			ops.add(s, next)
			if traced {
				opLat = append(opLat, next.Sub(s).Seconds())
				op := tr.id()
				ms := tr.at(s)
				mul := tr.add(0, op, op, "spmv.multiply", ms, tr.at(mulEnd[i]))
				ph := phases[i]
				e, c := ms+int64(ph.Expand), ms+int64(ph.Expand+ph.Compute)
				tr.add(0, mul, op, "spmv.expand", ms, e)
				tr.add(0, mul, op, "spmv.compute", e, c)
				tr.add(0, mul, op, "spmv.fold", c, c+int64(ph.Fold))
				tr.add(0, op, op, "solver.update", tr.at(mulEnd[i]), tr.at(next))
				tr.add(op, 0, op, rootName, ms, tr.at(next))
			}
		}
		attempted += iters
		solves++
		ok := true
		switch {
		case mulErr != nil:
			rep.fail("solve %d: %v", solves, mulErr)
			ok = false
		case iters != refIters || !res.Converged:
			rep.fail("solve %d: %d iterations (converged %v), serial reference took %d", solves, iters, res.Converged, refIters)
			ok = false
		case l1(r, ref) > prL1Tol:
			rep.fail("solve %d: L1 distance %.3g from the serial reference exceeds %.0e", solves, l1(r, ref), prL1Tol)
			ok = false
		case first != nil && !bitEqual(r, first):
			rep.fail("solve %d is not bitwise equal to solve 1", solves)
			ok = false
		}
		if first == nil {
			first = r
		}
		if !ok {
			failed += iters
		}
	}
	untracedLen, tracedLen := phaseLengths(cfg)
	wc := startWindows(untracedLen)
	elapsed := timedPhase(untracedLen, solve)
	rep.latencies(wc, elapsed, ops)
	rep.notes = append(rep.notes, fmt.Sprintf("%d solves of %d iterations", solves, refIters))
	if !cfg.trace {
		rep.ops(attempted, failed)
		return nil
	}

	untracedP50 := median(ops.lat)
	sampler.SamplePhases(true)
	traced = true
	timedPhase(tracedLen, solve)
	sampler.SamplePhases(false)
	rep.ops(attempted, failed)

	if !buildLadder(rep, m, engineK, cfg.seed, b.Dist) {
		rep.notes = append(rep.notes, "ladder rungs do not reproduce the method build; setup rung figures are indicative only")
	}
	setupLayers(rep)
	commLayers(rep, b, eng, 1, false)
	l := rep.layers
	spanMedians(rep, map[string]string{
		"spmv.multiply": "spmv.multiply_us", "spmv.expand": "spmv.expand_us",
		"spmv.compute": "spmv.compute_us", "spmv.fold": "spmv.fold_us", "solver.update": "solver.self_us",
	})
	l["solver.iters"] = float64(refIters)
	yy := make([]float64, n)
	l["sparse.mulvec_us"] = timeMedian(31, func() { m.MulVec(x0, yy) })
	l["spmv.speedup_vs_serial"] = l["sparse.mulvec_us"] / l["spmv.multiply_us"]
	l["spmv.allocs_per_op"] = allocsPerOp(50, func() { _ = eng.Multiply(x0, yy) })
	traceLayers(rep, untracedP50, median(opLat))
	return nil
}

// spanMedians sets each named layer metric to the median duration, in
// µs, of the timed phase's spans of that name.
func spanMedians(rep *report, names map[string]string) {
	ds := make(map[string][]float64)
	for _, s := range rep.tr.spans {
		if _, ok := names[s.Name]; ok && s.Op != 0 {
			ds[s.Name] = append(ds[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	for span, metric := range names {
		rep.layers[metric] = median(ds[span])
	}
}

// traceLayers records the traced op time, the unattributed remainder,
// and the tracing overhead: the traced phase's median op against the
// untraced phase's, both in seconds.
func traceLayers(rep *report, untracedP50, tracedP50 float64) {
	l := rep.layers
	l["trace.op_us"] = tracedP50 * 1e6
	l["trace.remainder_us"] = rep.tr.selfPerOp()[rootName]
	if untracedP50 > 0 {
		l["trace.overhead_frac"] = tracedP50/untracedP50 - 1
	}
	l["trace.spans"] = float64(len(rep.tr.spans))
}

func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// runSubspace is the subspace8 workload: block subspace iteration on AᵀA
// with 8 columns over the routed s2D-b engine. One op is one step:
// MultiplyBlock, MultiplyTransposeBlock, then per-column normalisation
// through solver.BlockDots. A solve is ssSteps steps from a seeded block.
func runSubspace(cfg *config, rep *report) error {
	a, err := suiteMatrix(ssMatrix, ssScale*cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	if a.Rows != a.Cols {
		return fmt.Errorf("%s stand-in is %dx%d; the workload needs a square matrix", ssMatrix, a.Rows, a.Cols)
	}
	n := a.Rows
	const w = ssNRHS
	X0 := randomVec(rand.New(rand.NewSource(cfg.seed)), n*w)

	// Oracle: the same steps per column with serial MulVec and an
	// explicit transpose. refZ1 is step 1's unnormalised AᵀA block (the
	// set-up check); refX is the block after ssSteps steps.
	at := a.Transpose()
	refZ1, refX := make([]float64, n*w), append([]float64(nil), X0...)
	{
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		for step := 0; step < ssSteps; step++ {
			for c := 0; c < w; c++ {
				for i := range x {
					x[i] = refX[i*w+c]
				}
				a.MulVec(x, y)
				at.MulVec(y, z)
				norm := math.Sqrt(solver.Dot(z, z))
				for i := range z {
					if step == 0 {
						refZ1[i*w+c] = z[i]
					}
					refX[i*w+c] = z[i] / norm
				}
			}
		}
	}
	if cfg.corrupt {
		refZ1[0] *= 1 + 1e-6
		refX[0] += 1e-6
	}
	X, Y, Z := make([]float64, n*w), make([]float64, n*w), make([]float64, n*w)
	dots := make([]float64, w)
	base := liveHeap()

	tr := rep.tr
	var b method.Build
	var eng spmv.Multiplier
	setup := func() setupResult {
		root := tr.id()
		t0 := time.Now()
		var err error
		b, eng, err = buildTimed(rep, root, ssMethod, a, engineK, method.Options{Seed: cfg.seed, Pipeline: method.NewPipeline()})
		if err != nil {
			return setupResult{err: err}
		}
		tf := tr.now()
		err = eng.MultiplyBlock(X0, Y, w)
		if err == nil {
			err = eng.MultiplyTransposeBlock(Y, Z, w)
		}
		took := time.Since(t0)
		tr.add(0, root, 0, "spmv.first_call", tf, tr.now())
		tr.add(root, 0, 0, "setup", tr.at(t0), tr.now())
		if err != nil {
			return setupResult{err: err}
		}
		if diff, scale := maxAbsDiff(Z, refZ1); diff > mulRelTol*scale {
			rep.fail("first AᵀA block differs from the serial reference by %.3g (scale %.3g)", diff, scale)
		}
		return setupResult{took: took}
	}
	if err := runSetups(rep, inProcessSetups, base, setup, func() { eng.Close() }); err != nil {
		return err
	}
	defer eng.Close()
	rep.fp.Kernels = eng.KernelReport().String()

	ops := newOpLog(1 << 12)
	var opLat []float64
	var firstX []float64
	traced := false
	attempted, failed, solves := 0, 0, 0
	solve := func() {
		copy(X, X0)
		var stepErr error
		for step := 0; step < ssSteps; step++ {
			t0 := time.Now()
			err := eng.MultiplyBlock(X, Y, w)
			t1 := time.Now()
			if err == nil {
				err = eng.MultiplyTransposeBlock(Y, Z, w)
			}
			t2 := time.Now()
			solver.BlockDots(Z, Z, w, dots)
			t3 := time.Now()
			for c := range dots {
				dots[c] = 1 / math.Sqrt(dots[c])
			}
			for i := range Z {
				X[i] = Z[i] * dots[i%w]
			}
			t4 := time.Now()
			if err != nil && stepErr == nil {
				stepErr = err
			}
			ops.add(t0, t4)
			if traced {
				opLat = append(opLat, t4.Sub(t0).Seconds())
				op := tr.id()
				tr.add(0, op, op, "spmv.block", tr.at(t0), tr.at(t1))
				tr.add(0, op, op, "spmv.transpose_block", tr.at(t1), tr.at(t2))
				tr.add(0, op, op, "solver.blockdots", tr.at(t2), tr.at(t3))
				tr.add(0, op, op, "subspace.scale", tr.at(t3), tr.at(t4))
				tr.add(op, 0, op, rootName, tr.at(t0), tr.at(t4))
			}
		}
		attempted += ssSteps
		solves++
		ok := true
		if stepErr != nil {
			rep.fail("solve %d: %v", solves, stepErr)
			ok = false
		} else if diff, scale := maxAbsDiff(X, refX); diff > ssRelTol*scale {
			rep.fail("solve %d: block differs from the serial per-column reference by %.3g (scale %.3g)", solves, diff, scale)
			ok = false
		} else if firstX != nil && !bitEqual(X, firstX) {
			rep.fail("solve %d is not bitwise equal to solve 1", solves)
			ok = false
		}
		if firstX == nil {
			firstX = append([]float64(nil), X...)
		}
		if !ok {
			failed += ssSteps
		}
	}
	untracedLen, tracedLen := phaseLengths(cfg)
	wc := startWindows(untracedLen)
	elapsed := timedPhase(untracedLen, solve)
	rep.latencies(wc, elapsed, ops)
	rep.notes = append(rep.notes, fmt.Sprintf("%d solves of %d steps", solves, ssSteps))
	if !cfg.trace {
		rep.ops(attempted, failed)
		return nil
	}

	untracedP50 := median(ops.lat)
	traced = true
	timedPhase(tracedLen, solve)
	rep.ops(attempted, failed)

	if !buildLadder(rep, a, engineK, cfg.seed, b.Dist) {
		rep.notes = append(rep.notes, "ladder rungs do not reproduce the method build; setup rung figures are indicative only")
	}
	setupLayers(rep)
	commLayers(rep, b, eng, w, true)
	spanMedians(rep, map[string]string{
		"spmv.block": "spmv.block_us", "spmv.transpose_block": "spmv.transpose_block_us",
		"solver.blockdots": "solver.blockdots_us",
	})
	l := rep.layers
	l["solver.iters"] = ssSteps
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	copy(x, X0[:n])
	l["sparse.mulvec8_us"] = timeMedian(7, func() {
		for c := 0; c < w; c++ {
			a.MulVec(x, y)
			at.MulVec(y, z)
		}
	})
	l["spmv.speedup_vs_serial"] = l["sparse.mulvec8_us"] / (l["spmv.block_us"] + l["spmv.transpose_block_us"])
	l["spmv.allocs_per_op"] = allocsPerOp(10, func() {
		_ = eng.MultiplyBlock(X, Y, w)
		_ = eng.MultiplyTransposeBlock(Y, Z, w)
	})
	traceLayers(rep, untracedP50, median(opLat))
	return nil
}
