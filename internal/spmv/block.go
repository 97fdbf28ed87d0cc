package spmv

import "repro/internal/distrib"

// This file is the public multiply surface both engines share. Every
// multiply — single-vector or multi-RHS (SpMM), forward or transpose —
// is one apply(dir, X, Y, w) over the engine's compiled plan for that
// direction. The static schedule is the same at every width: each
// packet keeps its fixed destination and index arrays, so a block
// multiply sends exactly the same number of messages as a single one and
// only the value payloads widen to w words per index. Vectors use the
// column-blocked (SoA row-major) layout: column c's entry for row i
// lives at X[i*w+c], which keeps every kernel's inner loop a unit-stride
// run over the w columns. Width 1 is the single-vector layout, so
// Multiply is MultiplyBlock at w = 1.
//
// Buffers are sized lazily for the (direction, width) of each call and
// cached at the largest width seen, so steady-state multiplies perform
// zero heap allocations.

// shape is the (direction, width) the engine's buffers are sliced for.
type shape struct {
	d dir
	w int
}

// base is the dispatch state and public surface Engine and RoutedEngine
// embed: the distribution, the worker pool, the kernel selection, the
// slice-of-vectors scratch, and the engine's ensureWidth hook.
type base struct {
	d    *distrib.Distribution
	pool workerPool
	kernelState
	io blockIO

	// ensure is the engine's ensureWidth: it readies the plan for
	// direction d at width w — compiling the transpose plan on its first
	// use and re-slicing every per-call buffer — with the workers parked.
	// apply calls it only when the shape changes.
	ensure func(d dir, w int)
	shape  shape
}

// init wires the engine's ensureWidth hook once its forward plan is
// compiled, and sizes that plan for width 1 so the first Multiply
// allocates nothing either.
func (b *base) init(ensure func(d dir, w int)) {
	b.ensure = ensure
	b.shape = shape{fwd, 1}
	ensure(fwd, 1)
}

// dims returns the operator's output and input lengths in direction d.
func (b *base) dims(d dir) (rows, cols int) {
	if d == trans {
		return b.d.A.Cols, b.d.A.Rows
	}
	return b.d.A.Rows, b.d.A.Cols
}

// apply computes Y ← AX (or AᵀX) for w column-blocked right-hand sides.
func (b *base) apply(d dir, X, Y []float64, w int) error {
	rows, cols := b.dims(d)
	checkBlockDims(X, Y, w, cols, rows)
	if s := (shape{d, w}); b.shape != s {
		b.ensure(d, w)
		b.shape = s
	}
	b.curKern = b.sel.forWidth(w)
	return b.pool.dispatch(d, X, Y, w)
}

// Multiply computes y ← Ax in parallel. x and y must have the matrix's
// dimensions (mismatches panic: that is a caller bug, not a runtime
// condition); y is fully overwritten. Steady-state calls spawn no
// goroutines and allocate nothing: the parked workers execute the
// compiled plan against the published x and y. Calls must not overlap
// on one engine — they share the compiled packet buffers. Multiply
// returns a typed *ClosedError after Close and a typed
// *EngineFaultError once a contained worker panic has poisoned the
// engine.
func (b *base) Multiply(x, y []float64) error { return b.apply(fwd, x, y, 1) }

// MultiplyBlock computes Y ← AX for nrhs right-hand sides in the
// column-blocked layout (X[j*nrhs+c] is x_j of column c): one packet per
// peer per phase regardless of nrhs, zero steady-state heap allocations
// at a fixed width, and nrhs=1 identical to Multiply.
func (b *base) MultiplyBlock(X, Y []float64, nrhs int) error { return b.apply(fwd, X, Y, nrhs) }

// MultiplyMulti computes Y[c] ← A·X[c] for every column c in one block
// multiply. X and Y are nrhs vectors of the matrix's dimensions; the
// engine packs them into its column-blocked scratch, runs the block
// multiply, and unpacks — zero steady-state allocations at a fixed nrhs.
func (b *base) MultiplyMulti(X, Y [][]float64) error { return b.multi(fwd, X, Y) }

// MultiplyTranspose computes y ← Aᵀx in parallel: x has the matrix's
// row dimension, y its column dimension, and y is fully overwritten.
// The first call compiles the transpose plan from the engine's retained
// schedule (the forward plan's packet structure with the phases
// reversed); steady-state calls spawn no goroutines and allocate
// nothing.
func (b *base) MultiplyTranspose(x, y []float64) error { return b.apply(trans, x, y, 1) }

// MultiplyTransposeBlock computes Y ← AᵀX for nrhs right-hand sides in
// the column-blocked layout (X[i*nrhs+c] is x_i of column c), with
// MultiplyBlock's contracts.
func (b *base) MultiplyTransposeBlock(X, Y []float64, nrhs int) error {
	return b.apply(trans, X, Y, nrhs)
}

// MultiplyTransposeMulti computes Y[c] ← Aᵀ·X[c] for every column c in
// one block transpose multiply; see MultiplyMulti.
func (b *base) MultiplyTransposeMulti(X, Y [][]float64) error { return b.multi(trans, X, Y) }

// Close parks the engine permanently: its worker goroutines exit and
// every multiply returns a typed *ClosedError afterwards. Close is
// idempotent — sharing layers that refcount engines may Close
// defensively. Closing is optional — an unclosed engine merely keeps K
// goroutines parked until process exit — but long-lived programs that
// build many engines should close them.
func (b *base) Close() { b.pool.close() }

// multi runs one slice-of-vectors multiply through the column-blocked
// path: pack X into scratch, apply, unpack into Y. A single vector is
// already in the nrhs=1 column-blocked layout, so it skips the scratch.
func (b *base) multi(d dir, X, Y [][]float64) error {
	nrhs := len(X)
	if nrhs == 0 || len(Y) != nrhs {
		panic("spmv: dimension mismatch")
	}
	if nrhs == 1 {
		return b.apply(d, X[0], Y[0], 1)
	}
	rows, cols := b.dims(d)
	xb := b.io.pack(X, cols)
	b.io.yb = growBlock(b.io.yb, rows*nrhs)
	if err := b.apply(d, xb, b.io.yb, nrhs); err != nil {
		return err
	}
	b.io.unpack(Y, rows)
	return nil
}

// blockIO holds the pack/unpack scratch MultiplyMulti uses to adapt
// slice-of-vectors callers to the column-blocked layout.
type blockIO struct {
	xb, yb []float64
}

// pack interleaves X (nrhs vectors of length n) into the column-blocked
// scratch and returns it. It stays out of line: inlined into multi, its
// strided store loop ran ~2× slower (MultiplyMulti at nrhs=8 on a
// 2500-row matrix, amd64), enough to cost the serving scheduler's
// coalesced flushes ~15%.
//
//go:noinline
func (io *blockIO) pack(X [][]float64, n int) []float64 {
	nrhs := len(X)
	xb := growBlock(io.xb, n*nrhs)
	io.xb = xb
	for c, xc := range X {
		if len(xc) != n {
			panic("spmv: dimension mismatch")
		}
		for i, v := range xc {
			xb[i*nrhs+c] = v
		}
	}
	return xb
}

// unpack de-interleaves the column-blocked result into Y.
func (io *blockIO) unpack(Y [][]float64, n int) {
	nrhs, yb := len(Y), io.yb
	for c, yc := range Y {
		if len(yc) != n {
			panic("spmv: dimension mismatch")
		}
		for i := range yc {
			yc[i] = yb[i*nrhs+c]
		}
	}
}

// checkBlockDims panics unless X and Y are column-blocked for nrhs
// right-hand sides over a cols×rows operator.
func checkBlockDims(X, Y []float64, nrhs, cols, rows int) {
	if nrhs < 1 {
		panic("spmv: nrhs must be >= 1")
	}
	if len(X) != cols*nrhs || len(Y) != rows*nrhs {
		panic("spmv: dimension mismatch")
	}
}
