// Package spmv executes distributed-memory parallel SpMV over K logical
// processors (goroutines exchanging explicit message packets), under any
// distrib.Distribution. It implements the three schedules of the paper:
//
//   - the classic two-phase algorithm (expand x, multiply, fold ȳ) for 2D
//     partitions;
//   - the paper's fused single-phase algorithm (§III) for s2D partitions:
//     Precompute, Expand-and-Fold (one packet [x̂,ŷ] per destination),
//     Compute;
//   - the routed two-hop variant for s2D-b (§VI-B1), where packets travel
//     through mesh intermediates and partial results combine en route.
//
// The engine exists to prove the algorithms compute the right answer, to
// count real packets, and to serve iterative solvers efficiently:
// NewEngine compiles the static schedule into a flat execution plan (see
// plan.go) and parks K persistent workers, so a steady-state Multiply
// spawns no goroutines and performs no heap allocations. The transpose
// product y ← Aᵀx compiles to a plan of the same type with the phases
// reversed (see transpose.go, routed_transpose.go), and one run body per
// schedule — runFused, runTwoPhase, runRouted — executes either
// direction at any width w ≥ 1 (see block.go) under the same contracts.
package spmv

import (
	"fmt"
	"sort"

	"repro/internal/distrib"
)

// packet is one point-to-point message: x entries requested by the
// destination and partial y results destined for (or routed towards) it.
// Index arrays are fixed at build time; value arrays are per-proc buffers
// refilled on every Multiply.
type packet struct {
	from int
	xIdx []int
	xVal []float64
	yIdx []int
	yVal []float64
}

// proc holds one processor's schedule. The map-based fields describe the
// schedule for ScheduleStats and the consistency tests; plans holds what
// a multiply actually executes.
type proc struct {
	id int

	// Owned nonzeros whose output row is local: computed in the final
	// Compute step. src ≥ 0 means x[src] is locally owned; src < 0 means
	// external slot -(src+1).
	ownRows []localNZ
	// Owned nonzeros whose output row is remote (the precompute set),
	// grouped by destination part. x is always local for these under s2D.
	preGroups map[int][]localNZ

	// xNeed[dest] lists the locally-owned x indices dest requires.
	xNeed map[int][]int
	// extSlot maps a remote x index to a slot in the forward extX.
	extSlot map[int]int

	// plans[fwd] is compiled at construction, plans[trans] on the first
	// transpose multiply (see transpose.go).
	plans [2]*plan
}

// plan is one processor's compiled schedule in one direction. The
// transpose is the forward plan's edge-for-edge dual, so both directions
// compile to this one type and run through the same body.
type plan struct {
	// own is the Compute kernel over the locally-owned outputs.
	own rowKernel
	// sends are the fused [x̂,ŷ] packets, or the two-phase phase-0 x
	// packets; ySends are the two-phase phase-1 fold packets.
	sends  []*sendPlan
	ySends []*sendPlan
	// recvX[sender] maps the t-th x entry of that sender's packet to an
	// extX slot.
	recvX map[int][]int
	recv  []recvPlan // one per phase, fixing fold order by sender

	// Per-call buffers, sized by resize for the call's width w: nExt
	// external x slots of w values each, the w-wide accumulator scratch
	// of the generic block kernels, and the packet payloads' arena.
	nExt int
	extX []float64
	acc  []float64
	vals valArena
}

// resize sizes every per-call buffer of the plan for width w.
func (p *plan) resize(w int) {
	p.extX = growBlock(p.extX, p.nExt*w)
	p.acc = growBlock(p.acc, w)
	n := 0
	for _, sp := range p.sends {
		n += sp.buf.words()
	}
	for _, sp := range p.ySends {
		n += sp.buf.words()
	}
	p.vals.reset(n * w)
	for _, sp := range p.sends {
		sp.buf.carve(&p.vals, w)
	}
	for _, sp := range p.ySends {
		sp.buf.carve(&p.vals, w)
	}
}

type localNZ struct {
	row int
	src int
	val float64
}

// Engine runs the fused (s2D) or two-phase (2D) schedule for a fixed
// distribution. Build once with NewEngine, call Multiply repeatedly.
// Multiplies must not be called concurrently on the same engine: calls
// share the compiled packet buffers.
type Engine struct {
	base
	procs []*proc
	fused bool

	// pt samples per-phase expand/compute/fold wall time on worker 0
	// when armed via SamplePhases (see timing.go).
	pt phaseTimer
}

// NewEngine builds the static communication and computation schedule for
// d, compiles it into an allocation-free execution plan, and starts one
// persistent worker per processor. Fused distributions must satisfy the
// s2D property.
//
//spmv:deterministic
func NewEngine(d *distrib.Distribution) (*Engine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var (
		e   *Engine
		err error
	)
	if d.Fused {
		e, err = newFusedEngine(d)
	} else {
		e, err = newTwoPhaseEngine(d)
	}
	if err != nil {
		return nil, err
	}
	e.d = d
	e.compileForward()
	e.init(e.ensureWidth)
	e.pool.launch(d.K, e.phases(), func(i int, dr dir, x, y []float64, w int) {
		pr := e.procs[i]
		// curKern is written by the dispatcher before the start-channel
		// send, so this read is ordered after it.
		if e.fused {
			e.runFused(pr, pr.plans[dr], x, y, w, e.curKern)
		} else {
			e.runTwoPhase(pr, pr.plans[dr], x, y, w, e.curKern)
		}
	})
	return e, nil
}

// phases is the number of communication phases (inboxes) per multiply.
func (e *Engine) phases() int {
	if e.fused {
		return 1
	}
	return 2
}

// ensureWidth compiles the transpose plan on its first use and re-slices
// direction d's buffers for width w; it runs with the workers parked.
func (e *Engine) ensureWidth(d dir, w int) {
	if e.procs[0].plans[d] == nil {
		e.compileTranspose()
	}
	for _, pr := range e.procs {
		pr.plans[d].resize(w)
	}
}

func newProcs(k int) []*proc {
	procs := make([]*proc, k)
	for i := range procs {
		procs[i] = &proc{
			id:        i,
			preGroups: make(map[int][]localNZ),
			xNeed:     make(map[int][]int),
			extSlot:   make(map[int]int),
		}
	}
	return procs
}

func (p *proc) slotFor(j int) int {
	s, ok := p.extSlot[j]
	if !ok {
		s = len(p.extSlot)
		p.extSlot[j] = s
	}
	return s
}

// compilePlan lowers one processor's schedule in one direction's frame
// to a plan: own is the Compute set, pre[dst] the partials shipped to
// dst, xOut[dst] the x indices shipped to dst, and nExt the number of
// external x slots the own and partial kernels read. A fused plan ships
// x entries and partials together in one packet per destination; a
// two-phase plan ships the x entries in phase 0 and the partials in
// phase 1. Destinations ascend, so packet emission is deterministic.
// The receive side is wired by linkPlans.
func compilePlan(id int, fused bool, own []localNZ, pre map[int][]localNZ, xOut map[int][]int, nExt int) *plan {
	p := &plan{own: compileRows(own), recvX: make(map[int][]int), nExt: nExt}
	if fused {
		dests := make(map[int]struct{}, len(xOut)+len(pre))
		for dst := range xOut {
			dests[dst] = struct{}{}
		}
		for dst := range pre {
			dests[dst] = struct{}{}
		}
		for _, dst := range sortedKeys(dests) {
			p.sends = append(p.sends, newSendPlan(id, dst, xOut[dst], compileRows(pre[dst])))
		}
		return p
	}
	for _, dst := range sortedKeys(xOut) {
		p.sends = append(p.sends, newSendPlan(id, dst, xOut[dst], rowKernel{}))
	}
	for _, dst := range sortedKeys(pre) {
		p.ySends = append(p.ySends, newSendPlan(id, dst, nil, compileRows(pre[dst])))
	}
	return p
}

// linkPlans wires the receive side of one direction's plans: each
// destination expects one packet per phase from every processor that
// sends it one, in ascending sender order, and translates each
// sender's fixed x payload into its extX slots through ext, the
// destination's index→slot map in that direction.
func linkPlans(plans []*plan, ext []map[int]int, phases int) {
	senders := make([][][]int, len(plans))
	for i := range senders {
		senders[i] = make([][]int, phases)
	}
	for from, p := range plans {
		for _, sp := range p.sends {
			senders[sp.dest][0] = append(senders[sp.dest][0], from)
			slots := make([]int, len(sp.buf.xIdx))
			for t, j := range sp.buf.xIdx {
				slots[t] = ext[sp.dest][j]
			}
			plans[sp.dest].recvX[from] = slots
		}
		for _, sp := range p.ySends {
			senders[sp.dest][1] = append(senders[sp.dest][1], from)
		}
	}
	for i, p := range plans {
		for _, s := range senders[i] {
			p.recv = append(p.recv, newRecvPlan(s))
		}
	}
}

// compileForward compiles every processor's forward plan.
func (e *Engine) compileForward() {
	plans := make([]*plan, len(e.procs))
	ext := make([]map[int]int, len(e.procs))
	for i, pr := range e.procs {
		plans[i] = compilePlan(pr.id, e.fused, pr.ownRows, pr.preGroups, pr.xNeed, len(pr.extSlot))
		ext[i] = pr.extSlot
		pr.plans[fwd] = plans[i]
	}
	linkPlans(plans, ext, e.phases())
}

// newFusedEngine builds the §III schedule: every nonzero is x-local or
// y-local; x-local/y-remote nonzeros are precomputed and their partials
// ride in the same packet as the x entries the destination needs.
func newFusedEngine(d *distrib.Distribution) (*Engine, error) {
	procs := newProcs(d.K)

	// xWant[owner][dest] tracks the set of x indices dest needs from owner.
	type pair struct{ from, to int }
	xWant := make(map[pair]map[int]struct{})

	var s2dErr error
	d.EachNZ(func(i, j int, v float64, o int) {
		if s2dErr != nil {
			return
		}
		yOwner := d.YPart[i]
		xOwner := d.XPart[j]
		pr := procs[o]
		switch {
		case o == yOwner && o == xOwner:
			pr.ownRows = append(pr.ownRows, localNZ{row: i, src: j, val: v})
		case o == yOwner: // x remote: request x_j from its owner
			key := pair{from: xOwner, to: o}
			if xWant[key] == nil {
				xWant[key] = make(map[int]struct{})
			}
			xWant[key][j] = struct{}{}
			pr.ownRows = append(pr.ownRows, localNZ{row: i, src: -(pr.slotFor(j) + 1), val: v})
		case o == xOwner: // y remote: precompute, ship the partial
			pr.preGroups[yOwner] = append(pr.preGroups[yOwner], localNZ{row: i, src: j, val: v})
		default:
			s2dErr = fmt.Errorf("spmv: nonzero (%d,%d) violates s2D", i, j)
		}
	})
	if s2dErr != nil {
		return nil, s2dErr
	}
	for key, set := range xWant { //spmvlint:unordered per-key independent writes; idxs are sorted before use
		idxs := make([]int, 0, len(set))
		for j := range set {
			idxs = append(idxs, j)
		}
		sort.Ints(idxs)
		procs[key.from].xNeed[key.to] = idxs
	}
	return &Engine{procs: procs, fused: true}, nil
}

// compiledGroupRows returns the distinct rows a fold group will ship —
// the group's packet yVal length — without building the kernel twice.
func compiledGroupRows(nzs []localNZ) []int {
	if len(nzs) == 0 {
		return nil
	}
	rows := make([]int, 0, len(nzs))
	for _, nz := range nzs {
		rows = append(rows, nz.row)
	}
	return dedupSorted(rows)
}

// newTwoPhaseEngine builds the classic expand/fold schedule used by 2D
// partitions: phase 0 ships x entries to nonzero owners, phase 1 ships
// partial y results to row owners.
func newTwoPhaseEngine(d *distrib.Distribution) (*Engine, error) {
	procs := newProcs(d.K)

	type pair struct{ from, to int }
	xWant := make(map[pair]map[int]struct{})

	d.EachNZ(func(i, j int, v float64, o int) {
		yOwner := d.YPart[i]
		pr := procs[o]
		src := j
		if d.XPart[j] != o {
			key := pair{from: d.XPart[j], to: o}
			if xWant[key] == nil {
				xWant[key] = make(map[int]struct{})
			}
			xWant[key][j] = struct{}{}
			src = -(pr.slotFor(j) + 1)
		}
		if yOwner == o {
			pr.ownRows = append(pr.ownRows, localNZ{row: i, src: src, val: v})
		} else {
			pr.preGroups[yOwner] = append(pr.preGroups[yOwner], localNZ{row: i, src: src, val: v})
		}
	})
	for key, set := range xWant { //spmvlint:unordered per-key independent writes; idxs are sorted before use
		idxs := make([]int, 0, len(set))
		for j := range set {
			idxs = append(idxs, j)
		}
		sort.Ints(idxs)
		procs[key.from].xNeed[key.to] = idxs
	}
	return &Engine{procs: procs, fused: false}, nil
}

// runFused executes one processor's part of the §III algorithm in
// either direction: fill the precompiled [x̂,ŷ] packets (Precompute +
// Expand-and-Fold), bank the incoming ones in sender order, then run
// the local Compute kernel. Under s2D every partial reads local x only.
//
//spmv:hotpath
func (e *Engine) runFused(pr *proc, p *plan, x, y []float64, w int, kid kernelID) {
	in := e.pool.inbox
	pc := e.phaseClock(pr)
	for _, sp := range p.sends {
		sp.fill(kid, x, p.extX, w)
		in[sp.dest][0] <- sp.buf
	}
	pc.lap(&e.pt.expandNs)
	for _, pk := range p.recv[0].gather(in[pr.id][0]) {
		scatterW(p.extX, pk.xVal, p.recvX[pk.from], w)
		scatterAddW(y, pk.yVal, pk.yIdx, w) // outputs owned exclusively by this proc
	}
	pc.lap(&e.pt.foldNs)
	p.own.addIntoK(kid, y, x, p.extX, w, p.acc)
	pc.lap(&e.pt.computeNs)
}

// runTwoPhase executes one processor's part of the classic algorithm in
// either direction: expand x, compute, fold the partials.
//
//spmv:hotpath
func (e *Engine) runTwoPhase(pr *proc, p *plan, x, y []float64, w int, kid kernelID) {
	in := e.pool.inbox
	pc := e.phaseClock(pr)
	// Phase 0 — Expand.
	for _, sp := range p.sends {
		sp.fill(kid, x, p.extX, w)
		in[sp.dest][0] <- sp.buf
	}
	for _, pk := range p.recv[0].gather(in[pr.id][0]) {
		scatterW(p.extX, pk.xVal, p.recvX[pk.from], w)
	}
	pc.lap(&e.pt.expandNs)
	// Multiply.
	p.own.addIntoK(kid, y, x, p.extX, w, p.acc)
	pc.lap(&e.pt.computeNs)
	// Phase 1 — Fold.
	for _, sp := range p.ySends {
		sp.fill(kid, x, p.extX, w)
		in[sp.dest][1] <- sp.buf
	}
	for _, pk := range p.recv[1].gather(in[pr.id][1]) {
		scatterAddW(y, pk.yVal, pk.yIdx, w)
	}
	pc.lap(&e.pt.foldNs)
}
