package spmv

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/distrib"
	"repro/internal/method"
)

// localView is one compiled plan seen through its local vector: every
// kernel, the send-group kernels that must fill before any receive, and
// every slot list that writes received x values into the vector.
type localView struct {
	io    *planIO
	all   []*rowKernel
	sends []*rowKernel
	tails [][]int
}

func fusedView(p *plan, fused bool) localView {
	v := localView{io: &p.planIO, all: []*rowKernel{&p.own}}
	for _, sp := range slices.Concat(p.sends, p.ySends) {
		v.all = append(v.all, &sp.grp)
		if fused {
			v.sends = append(v.sends, &sp.grp)
		}
	}
	for _, slots := range p.recvX { //spmvlint:unordered collection order is irrelevant to the checks
		v.tails = append(v.tails, slots)
	}
	return v
}

func routedView(p *rplan) localView {
	v := localView{io: &p.planIO, all: []*rowKernel{&p.own, &p.self}, sends: []*rowKernel{&p.self}}
	for _, sp := range p.hop1 {
		v.all = append(v.all, &sp.grp)
		v.sends = append(v.sends, &sp.grp)
	}
	v.tails = append(v.tails, p.extSlot)
	for _, slots := range p.hop2Recv { //spmvlint:unordered collection order is irrelevant to the checks
		v.tails = append(v.tails, slots)
	}
	return v
}

// ownedReads lists, ascending, the x entries (in direction dr's frame)
// that processor id owns and reads for its own nonzeros.
func ownedReads(d *distrib.Distribution, id int, dr dir) []int {
	var out []int
	d.EachNZ(func(i, j int, _ float64, o int) {
		if o != id {
			return
		}
		if dr == fwd && d.XPart[j] == id {
			out = append(out, j)
		}
		if dr == trans && d.YPart[i] == id {
			out = append(out, i)
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// checkLocalView checks one plan's local index space: every kernel
// position lies in [0, nOwn+nExt); ownIdx is strictly ascending and is
// exactly the set of owned x entries the processor's nonzeros read, each
// read by some kernel; send groups read the owned head only (the s2D
// condition that lets them fill before the receives); received x values
// land in the external tail only.
func checkLocalView(t *testing.T, label string, v localView, owned []int) {
	t.Helper()
	nOwn := len(v.io.ownIdx)
	n := nOwn + v.io.nExt
	if !slices.Equal(v.io.ownIdx, owned) {
		t.Fatalf("%s: ownIdx %v, want the owned reads %v", label, v.io.ownIdx, owned)
	}
	for q := 1; q < nOwn; q++ {
		if v.io.ownIdx[q] <= v.io.ownIdx[q-1] {
			t.Fatalf("%s: ownIdx not strictly ascending at %d", label, q)
		}
	}
	read := make([]bool, nOwn)
	for _, k := range v.all {
		for _, s := range k.src {
			if s < 0 || int(s) >= n {
				t.Fatalf("%s: kernel position %d outside [0,%d)", label, s, n)
			}
			if int(s) < nOwn {
				read[s] = true
			}
		}
	}
	if i := slices.Index(read, false); i >= 0 {
		t.Fatalf("%s: owned entry %d (x_%d) gathered but read by no kernel", label, i, v.io.ownIdx[i])
	}
	for _, k := range v.sends {
		for _, s := range k.src {
			if int(s) >= nOwn {
				t.Fatalf("%s: send group reads external position %d (nOwn %d)", label, s, nOwn)
			}
		}
	}
	for _, slots := range v.tails {
		for _, s := range slots {
			if s < nOwn || s >= n {
				t.Fatalf("%s: received x lands at %d, outside the tail [%d,%d)", label, s, nOwn, n)
			}
		}
	}
}

// TestPlanLocalIndexSpace pins the layout every compiled kernel reads:
// for every registry method at K ∈ {4, 16}, forward and transpose, each
// processor's plan indexes its compact local vector [owned x | external
// slots] and nothing else.
func TestPlanLocalIndexSpace(t *testing.T) {
	rect, square := equivFixtures()
	for _, k := range []int{4, 16} {
		opt := method.Options{Seed: 7, Pipeline: method.NewPipeline()}
		for _, name := range method.Names() {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				eng, fx := equivEngine(t, name, k, opt, rect, square)
				// The transpose plan compiles on its first use.
				if err := eng.MultiplyTranspose(fx.xt[:fx.a.Rows], make([]float64, fx.a.Cols)); err != nil {
					t.Fatal(err)
				}
				for _, dr := range []dir{fwd, trans} {
					switch e := eng.(type) {
					case *Engine:
						for _, pr := range e.procs {
							label := fmt.Sprintf("dir %d proc %d", dr, pr.id)
							checkLocalView(t, label, fusedView(pr.plans[dr], e.fused), ownedReads(e.d, pr.id, dr))
						}
					case *RoutedEngine:
						for _, pr := range e.rprocs {
							label := fmt.Sprintf("dir %d proc %d", dr, pr.id)
							checkLocalView(t, label, routedView(pr.plans[dr]), ownedReads(e.d, pr.id, dr))
						}
					default:
						t.Fatalf("unexpected engine %T", eng)
					}
				}
			})
		}
	}
}
