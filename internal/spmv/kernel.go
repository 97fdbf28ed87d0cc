package spmv

// This file is the kernel backend layer: two interchangeable compute
// implementations behind the two entry points every run body uses
// (addIntoK / fillIntoK). The compiled plan — packets, index arrays,
// receive order — is backend-independent; a backend only changes how a
// rowKernel's slots are walked at a given width:
//
//   - scalar: the variable-width loops over each slot's run. The
//             reference backend.
//   - reg:    SpMM loops specialized for w ∈ {2, 4, 8}
//             (kernel_width.go): all w accumulators live in registers
//             for one sweep of each slot's run. Other widths run the
//             scalar loops. Results are bitwise identical to scalar.
//
// Width 1 always runs the single-vector loops, whatever the backend.
// Selection is per width class (the w buckets 1, 2, 4, 8, and 0 for
// every other width), held in a kernelSel and resolved once per dispatch
// — the per-slot inner loops pay no dynamic dispatch.

import (
	"fmt"
	"strings"
)

// kernelID names one kernel backend.
type kernelID uint8

const (
	kernScalar kernelID = iota
	kernReg
	numKernels
)

var kernelNames = [numKernels]string{"scalar", "reg"}

func (k kernelID) String() string { return kernelNames[k] }

// kernelByName resolves a backend name ("scalar", "reg"),
// case-sensitively.
func kernelByName(name string) (kernelID, error) {
	for id, n := range kernelNames {
		if n == name {
			return kernelID(id), nil
		}
	}
	return 0, fmt.Errorf("spmv: unknown kernel %q (valid: %s)",
		name, strings.Join(KernelNames(), ", "))
}

// KernelNames lists the selectable kernel backends, scalar first. The
// order is also the autotuner's probe and tie-break order.
func KernelNames() []string {
	out := make([]string, numKernels)
	copy(out, kernelNames[:])
	return out
}

// Width classes: w ∈ {1, 2, 4, 8} each form their own class, every
// other width shares class 0 ("generic"), which always runs the
// variable-width loops.
const numClasses = 5

// classWidths maps a class index to the width identifying it publicly
// (0 = all other widths).
var classWidths = [numClasses]int{0, 1, 2, 4, 8}

func classOf(w int) int {
	switch w {
	case 1:
		return 1
	case 2:
		return 2
	case 4:
		return 3
	case 8:
		return 4
	}
	return 0
}

// kernelSel is the per-width-class backend selection; the zero value
// selects scalar everywhere.
type kernelSel struct {
	byClass [numClasses]kernelID
}

func (s *kernelSel) forWidth(w int) kernelID { return s.byClass[classOf(w)] }

// kernelState is the kernel-selection state embedded in both engines:
// the per-class selection, the backend of the in-flight dispatch
// (written by the dispatcher before the workers start, so the channel
// send orders it before any worker read), and the last Autotune report.
type kernelState struct {
	sel     kernelSel
	curKern kernelID
	tuned   *KernelReport
}

// installKernel selects kid for one width class. It must run with the
// workers parked (between dispatches).
func (ks *kernelState) installKernel(class int, kid kernelID) { ks.sel.byClass[class] = kid }

// report returns the engine's current selection: the Autotune verdict
// when one ran, otherwise a synthetic all-default report.
func (ks *kernelState) report() KernelReport {
	if ks.tuned != nil {
		return ks.tuned.clone()
	}
	choices := make([]KernelChoice, numClasses)
	for c := range choices {
		choices[c] = KernelChoice{
			NRHS:   classWidths[c],
			Kernel: ks.sel.byClass[c].String(),
			Source: "default",
		}
	}
	return KernelReport{Choices: choices}
}

// ---- dispatch ----

// addIntoK accumulates every slot's w values into dst under the given
// backend: addInto at w = 1, the register-blocked loop where reg has
// one, the generic block loop otherwise.
//
//spmv:hotpath
func (k *rowKernel) addIntoK(kid kernelID, dst, xl []float64, w int, acc []float64) {
	switch {
	case w == 1:
		k.addInto(dst, xl)
	case kid == kernReg && w == 2:
		k.addIntoBlock2(dst, xl)
	case kid == kernReg && w == 4:
		k.addIntoBlock4(dst, xl)
	case kid == kernReg && w == 8:
		k.addIntoBlock8(dst, xl)
	default:
		k.addIntoBlock(dst, xl, w, acc)
	}
}

// fillIntoK overwrites dst with every slot's w values under the given
// backend (see addIntoK).
//
//spmv:hotpath
func (k *rowKernel) fillIntoK(kid kernelID, dst, xl []float64, w int) {
	switch {
	case w == 1:
		k.fillInto(dst, xl)
	case kid == kernReg && w == 2:
		k.fillIntoBlock2(dst, xl)
	case kid == kernReg && w == 4:
		k.fillIntoBlock4(dst, xl)
	case kid == kernReg && w == 8:
		k.fillIntoBlock8(dst, xl)
	default:
		k.fillIntoBlock(dst, xl, w)
	}
}
