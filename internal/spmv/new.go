package spmv

import (
	"repro/internal/distrib"
	"repro/internal/method"
)

// Multiplier is the engine surface every schedule implements: repeated
// allocation-free y ← Ax and its transpose y ← Aᵀx, the multi-RHS twins
// (column-blocked and slice-of-vectors) of both, the static schedule's
// communication statistics, and worker shutdown. Every registry
// method's build satisfies it through New, so batched and
// normal-equation callers need no engine-specific code.
//
// Every multiply returns nil on success; dimension mismatches still
// panic (caller bugs), but runtime conditions are errors: a typed
// *ClosedError after Close, and a typed *EngineFaultError once a
// contained worker panic has poisoned the engine (see fault.go). A
// poisoned engine fails every subsequent multiply fast; the only
// recovery is Close plus a fresh build.
type Multiplier interface {
	Multiply(x, y []float64) error
	// MultiplyBlock computes Y ← AX for nrhs right-hand sides in the
	// column-blocked layout (column c of row i at X[i*nrhs+c]), reusing
	// the compiled plan's packets with nrhs-wide payloads: one message
	// per peer per phase regardless of nrhs, zero steady-state
	// allocations at a fixed width, and nrhs=1 bit-identical to Multiply.
	MultiplyBlock(X, Y []float64, nrhs int) error
	// MultiplyMulti is MultiplyBlock over len(X) separate vectors, packed
	// into (and unpacked from) engine-owned scratch.
	MultiplyMulti(X, Y [][]float64) error
	// MultiplyTranspose computes y ← Aᵀx (x length Rows, y length Cols)
	// on the same distribution: the forward plan's packets run with the
	// phases reversed, so message counts and steady-state allocation
	// behavior (zero) match Multiply's. The transpose plan compiles
	// lazily on the first call.
	MultiplyTranspose(x, y []float64) error
	// MultiplyTransposeBlock and MultiplyTransposeMulti are the multi-RHS
	// twins of MultiplyTranspose, with MultiplyBlock's layout and
	// contracts.
	MultiplyTransposeBlock(X, Y []float64, nrhs int) error
	MultiplyTransposeMulti(X, Y [][]float64) error
	// Autotune probes the candidate kernel backends on the engine's own
	// compiled plan and installs per-width-class winners (see TuneConfig
	// in autotune.go); KernelReport returns the current selection. The
	// zero selection — scalar everywhere — is always valid, so calling
	// Autotune is optional.
	Autotune(cfg TuneConfig) (KernelReport, error)
	KernelReport() KernelReport
	ScheduleStats() distrib.CommStats
	Close()
}

// New builds the engine a method build calls for: the routed two-hop
// engine when the build carries a mesh (the latency-bounded s2D-b
// schedule), the compiled fused or two-phase engine otherwise. Callers
// get one constructor for every registered method instead of branching on
// engine type.
//
//spmv:deterministic
func New(b method.Build) (Multiplier, error) {
	if b.Mesh != nil {
		return NewRoutedEngine(b.Dist, *b.Mesh)
	}
	return NewEngine(b.Dist)
}

// NewTuned is New followed by Autotune wired from the method options:
// opt.ForceKernel forces one backend, and when opt.Pipeline is set the
// tuner decisions memoize there keyed by (matrix, method, K, seed,
// epsilon, width-class) — so a K-sweep or a rebuilt serve engine tunes
// once per key and every later build installs the cached winners
// without re-probing. The engine is closed on tuning failure.
func NewTuned(b method.Build, opt method.Options) (Multiplier, KernelReport, error) {
	m, err := New(b)
	if err != nil {
		return nil, KernelReport{}, err
	}
	cfg := TuneConfig{Force: opt.ForceKernel}
	if opt.Pipeline != nil {
		cfg.Cache = opt.Pipeline.KernelCache(b.Dist.A, b.Method, b.Dist.K, opt.Seed, opt.Epsilon)
	}
	rep, err := m.Autotune(cfg)
	if err != nil {
		m.Close()
		return nil, KernelReport{}, err
	}
	return m, rep, nil
}
