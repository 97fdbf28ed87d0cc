package spmv

// Plan-time autotuner. At build time (spmv.NewTuned, or explicitly via
// Engine.Autotune) the engine probes the scalar and reg kernel backends
// at every register-blocked width class (2, 4, 8) on its own compiled
// plan — the real packets, the real schedule, deterministic synthetic
// vectors — and installs the per-width-class winner. The generic and
// single-vector classes have one candidate (scalar) and are set without
// probing. Probing uses a fixed repetition count and takes the minimum
// over a fixed number of rounds; reg must beat scalar by a hysteresis
// margin or scalar stays, so noise cannot flip a near-tie away from the
// reference kernels.
//
// Wall-clock timing is inherently machine-dependent, so cross-build
// determinism comes from the cache, not the stopwatch: when a
// TuneConfig carries a KernelCache (method.Pipeline provides one keyed
// by (matrix, method, K, seed, epsilon)), the first decision for each
// width class is stored and every later Build with the same key
// installs the cached winner without re-probing. TuneConfig.Force
// bypasses probing entirely and installs one named backend for every
// class.

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// TuneConfig configures one Autotune run.
type TuneConfig struct {
	// Widths lists the nrhs width classes to tune (0 names the generic
	// class). Nil tunes every class.
	Widths []int
	// Force installs the named backend for every width class without
	// probing; unknown names error.
	Force string
	// Cache memoizes decisions across engine builds (see KernelCache);
	// nil probes every time.
	Cache KernelCache
}

// KernelCache persists per-width-class kernel decisions across engine
// builds. method.Pipeline's KernelCache satisfies it.
type KernelCache interface {
	Lookup(nrhs int) (kernel string, ok bool)
	Store(nrhs int, kernel string)
}

// KernelChoice is one width class's selection.
type KernelChoice struct {
	// NRHS identifies the width class: 1, 2, 4, 8, or 0 for the generic
	// class covering every other width.
	NRHS   int    `json:"nrhs"`
	Kernel string `json:"kernel"`
	// Source says how the choice was made: "default" (never tuned),
	// "fixed" (a single-candidate class, set without probing), "probed",
	// "cached", or "forced".
	Source string `json:"source"`
	// ProbesNs holds the best probe time per candidate when Source is
	// "probed".
	ProbesNs map[string]float64 `json:"probes_ns,omitempty"`
}

// KernelReport is the engine's per-width-class kernel selection.
type KernelReport struct {
	Choices []KernelChoice `json:"choices"`
}

func (r KernelReport) clone() KernelReport {
	out := KernelReport{Choices: make([]KernelChoice, len(r.Choices))}
	copy(out.Choices, r.Choices)
	return out
}

// For returns the backend name serving the given nrhs.
func (r KernelReport) For(nrhs int) string {
	w := classWidths[classOf(nrhs)]
	for _, ch := range r.Choices {
		if ch.NRHS == w {
			return ch.Kernel
		}
	}
	return kernScalar.String()
}

// String renders the selection compactly, one "nrhs:kernel" pair per
// width class (0 is the generic class), e.g. "0:scalar 1:scalar 2:reg
// 4:reg 8:reg".
func (r KernelReport) String() string {
	parts := make([]string, 0, len(r.Choices))
	for _, ch := range r.Choices {
		parts = append(parts, fmt.Sprintf("%d:%s", ch.NRHS, ch.Kernel))
	}
	return strings.Join(parts, " ")
}

// Probe shape: fixed warmup and repetition counts, minimum over rounds.
const (
	tuneWarmups = 1
	tuneRounds  = 3
	tuneInner   = 2
	// tuneHysteresis: a candidate must run in under this fraction of the
	// scalar time to displace it.
	tuneHysteresis = 0.98
)

// Autotune probes the candidate kernel backends on the engine's own
// compiled plan and installs per-width-class winners; see TuneConfig.
// It must not overlap a Multiply (same single-caller contract) and runs
// a bounded number of multiplies into private scratch, leaving no
// visible state behind beyond the installed selection.
func (b *base) Autotune(cfg TuneConfig) (KernelReport, error) { return autotune(b, cfg) }

// KernelReport returns the engine's current kernel selection: the last
// Autotune's verdict, or an all-default report when never tuned.
func (b *base) KernelReport() KernelReport { return b.report() }

// tuneCandidates is the probe order for every width class with a
// register-blocked loop (2, 4, 8); the generic and single-vector
// classes run scalar loops under either backend, so they have no
// candidate to probe.
var tuneCandidates = []kernelID{kernScalar, kernReg}

func autotune(e *base, cfg TuneConfig) (KernelReport, error) {
	ks := &e.kernelState

	if cfg.Force != "" {
		kid, err := kernelByName(cfg.Force)
		if err != nil {
			return KernelReport{}, err
		}
		choices := make([]KernelChoice, numClasses)
		for c := 0; c < numClasses; c++ {
			e.installKernel(c, kid)
			choices[c] = KernelChoice{NRHS: classWidths[c], Kernel: kid.String(), Source: "forced"}
		}
		rep := KernelReport{Choices: choices}
		ks.tuned = &rep
		return rep.clone(), nil
	}

	var want [numClasses]bool
	if cfg.Widths == nil {
		for c := range want {
			want[c] = true
		}
	} else {
		for _, w := range cfg.Widths {
			want[classOf(w)] = true
		}
	}

	rows, cols := e.dims(fwd)
	maxW := 1
	for c, w := range classWidths {
		if want[c] && w > maxW {
			maxW = w
		}
	}
	x := make([]float64, cols*maxW)
	y := make([]float64, rows*maxW)
	for i := range x {
		// Deterministic, sign-mixed, non-degenerate probe input.
		x[i] = 1 + float64(i%7)*0.125 - float64(i%3)
	}

	choices := make([]KernelChoice, numClasses)
	for c := range choices {
		choices[c] = KernelChoice{
			NRHS:   classWidths[c],
			Kernel: ks.sel.byClass[c].String(),
			Source: "default",
		}
	}

	// Classes probe in ascending order regardless of cfg.Widths order, so
	// the probe sequence — and with it any cache-store order — is fixed.
	for c := 0; c < numClasses; c++ {
		if !want[c] {
			continue
		}
		width := classWidths[c]
		if width <= 1 {
			e.installKernel(c, kernScalar)
			choices[c] = KernelChoice{NRHS: width, Kernel: kernScalar.String(), Source: "fixed"}
			continue
		}
		if cfg.Cache != nil {
			if name, ok := cfg.Cache.Lookup(width); ok {
				kid, err := kernelByName(name)
				if err != nil {
					return KernelReport{}, fmt.Errorf("spmv: cached kernel for nrhs=%d: %w", width, err)
				}
				e.installKernel(c, kid)
				choices[c] = KernelChoice{NRHS: width, Kernel: name, Source: "cached"}
				continue
			}
		}
		probes := make(map[string]float64, len(tuneCandidates))
		winner, bestNs, scalarNs := kernScalar, math.MaxFloat64, 0.0
		for _, kid := range tuneCandidates {
			e.installKernel(c, kid)
			ns, err := probeNs(e, width, x, y, rows, cols)
			if err != nil {
				return KernelReport{}, err
			}
			probes[kid.String()] = ns
			if kid == kernScalar {
				scalarNs = ns
			}
			if ns < bestNs {
				winner, bestNs = kid, ns
			}
		}
		if winner != kernScalar && bestNs > scalarNs*tuneHysteresis {
			winner = kernScalar
		}
		e.installKernel(c, winner)
		choices[c] = KernelChoice{NRHS: width, Kernel: winner.String(), Source: "probed", ProbesNs: probes}
		if cfg.Cache != nil {
			cfg.Cache.Store(width, winner.String())
		}
	}

	rep := KernelReport{Choices: choices}
	ks.tuned = &rep
	return rep.clone(), nil
}

// probeNs times the installed backend at the given width: tuneWarmups
// warmup calls, then the best of tuneRounds rounds of tuneInner calls.
func probeNs(e *base, w int, x, y []float64, rows, cols int) (float64, error) {
	call := func() error { return e.apply(fwd, x[:cols*w], y[:rows*w], w) }
	for i := 0; i < tuneWarmups; i++ {
		if err := call(); err != nil {
			return 0, err
		}
	}
	best := math.MaxFloat64
	for r := 0; r < tuneRounds; r++ {
		t0 := time.Now()
		for i := 0; i < tuneInner; i++ {
			if err := call(); err != nil {
				return 0, err
			}
		}
		if d := float64(time.Since(t0).Nanoseconds()) / tuneInner; d < best {
			best = d
		}
	}
	return best, nil
}
