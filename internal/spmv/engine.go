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
	"slices"

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

// sched is one processor's share of the nonzeros as splitNZ sorts
// them, in the forward frame. Both engines embed it; the map-based
// fields also serve ScheduleStats and the consistency tests.
type sched struct {
	id int

	// Owned nonzeros whose output row is local: computed in the final
	// Compute step. src ≥ 0 means x[src] is locally owned; src < 0 means
	// external slot -(src+1).
	ownRows []localNZ
	// Owned nonzeros whose output row is remote (the precompute set),
	// grouped by destination part. x is always local for these under s2D.
	preGroups map[int][]localNZ

	// xNeed[dest] lists the locally-owned x indices dest requires,
	// ascending.
	xNeed map[int][]int
	// extSlot maps a remote x index to its forward external slot.
	extSlot map[int]int
}

// proc is one processor of the fused or two-phase engine: its schedule
// and the plans a multiply actually executes.
type proc struct {
	sched
	// plans[fwd] is compiled at construction, plans[trans] on the first
	// transpose multiply (see transpose.go). Both run over loc.
	plans [2]*plan
	loc   localVec
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
	// recvX[sender] maps the t-th x entry of that sender's packet to its
	// position in the local vector's external tail.
	recvX map[int][]int
	recv  []recvPlan // one per phase, fixing fold order by sender
	planIO
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
	if err := checkIndexRange(d); err != nil {
		return nil, err
	}
	e := &Engine{fused: d.Fused}
	for _, sc := range splitNZ(d) {
		e.procs = append(e.procs, &proc{sched: sc})
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
		pr.plans[d].ready(&pr.loc, w)
	}
}

// splitNZ sorts d's nonzeros into K processor schedules: a nonzero
// whose output row its owner holds joins ownRows, any other joins the
// partial group of the row's owner, and one whose x entry lives
// elsewhere reads an external slot that the x owner's xNeed ships.
// Under s2D — which Validate enforces for fused distributions — every
// partial reads owned x, so the fused and routed schedules ship
// partials and x entries together.
func splitNZ(d *distrib.Distribution) []sched {
	scheds := make([]sched, d.K)
	for i := range scheds {
		scheds[i] = sched{
			id:        i,
			preGroups: make(map[int][]localNZ),
			xNeed:     make(map[int][]int),
			extSlot:   make(map[int]int),
		}
	}
	d.EachNZ(func(i, j int, v float64, o int) {
		sc := &scheds[o]
		nz := localNZ{row: i, src: j, val: v}
		if xo := d.XPart[j]; xo != o {
			nz.src = -(sc.slotFor(&scheds[xo], j) + 1)
		}
		if yo := d.YPart[i]; yo == o {
			sc.ownRows = append(sc.ownRows, nz)
		} else {
			sc.preGroups[yo] = append(sc.preGroups[yo], nz)
		}
	})
	for _, sc := range scheds {
		for dst, idxs := range sc.xNeed { //spmvlint:unordered each list is sorted on its own
			sc.xNeed[dst] = dedupSorted(idxs)
		}
	}
	return scheds
}

// slotFor returns x_j's external slot, allocating it on first use and
// recording that owner ships x_j here.
func (p *sched) slotFor(owner *sched, j int) int {
	s, ok := p.extSlot[j]
	if !ok {
		s = len(p.extSlot)
		p.extSlot[j] = s
		owner.xNeed[p.id] = append(owner.xNeed[p.id], j)
	}
	return s
}

// compilePlan lowers one processor's schedule in one direction's frame
// to a plan: own is the Compute set, pre[dst] the partials shipped to
// dst, xOut[dst] the x indices shipped to dst, and nExt the number of
// external x slots the own and partial kernels read; the kernels are
// localized by lz to the plan's local vector. A fused plan ships
// x entries and partials together in one packet per destination; a
// two-phase plan ships the x entries in phase 0 and the partials in
// phase 1. Destinations ascend, so packet emission is deterministic.
// The receive side is wired by linkPlans.
func compilePlan(lz localizer, id int, fused bool, own []localNZ, pre map[int][]localNZ, xOut map[int][]int, nExt int) *plan {
	p := &plan{own: compileRows(own), recvX: make(map[int][]int)}
	p.nExt = nExt
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
	} else {
		for _, dst := range sortedKeys(xOut) {
			p.sends = append(p.sends, newSendPlan(id, dst, xOut[dst], rowKernel{}))
		}
		for _, dst := range sortedKeys(pre) {
			p.ySends = append(p.ySends, newSendPlan(id, dst, nil, compileRows(pre[dst])))
		}
	}
	ks := []*rowKernel{&p.own}
	for _, sp := range slices.Concat(p.sends, p.ySends) {
		ks = append(ks, &sp.grp)
		p.out = append(p.out, &sp.buf)
	}
	p.ownIdx = lz.localize(ks...)
	return p
}

// linkPlans wires the receive side of one direction's plans: each
// destination expects one packet per phase from every processor that
// sends it one, in ascending sender order, and translates each
// sender's fixed x payload into its local vector's external tail through
// ext, the destination's index→slot map in that direction.
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
				slots[t] = len(plans[sp.dest].ownIdx) + ext[sp.dest][j]
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
	lz := newLocalizer(e.d.A.Cols)
	for i, pr := range e.procs {
		plans[i] = compilePlan(lz, pr.id, e.fused, pr.ownRows, pr.preGroups, pr.xNeed, len(pr.extSlot))
		ext[i] = pr.extSlot
		pr.plans[fwd] = plans[i]
	}
	linkPlans(plans, ext, e.phases())
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

// runFused executes one processor's part of the §III algorithm in
// either direction: gather the owned x entries into the local vector,
// fill the precompiled [x̂,ŷ] packets (Precompute + Expand-and-Fold),
// bank the incoming ones in sender order, then run the local Compute
// kernel. Under s2D every partial reads owned x only, so the packets
// fill before any external slot has arrived.
//
//spmv:hotpath
func (e *Engine) runFused(pr *proc, p *plan, x, y []float64, w int, kid kernelID) {
	in := e.pool.inbox
	pc := e.phaseClock(pr)
	xl := pr.loc.xl
	gatherW(xl, x, p.ownIdx, w)
	for _, sp := range p.sends {
		sp.fill(kid, x, xl, w)
		in[sp.dest][0] <- sp.buf
	}
	pc.lap(&e.pt.expandNs)
	for _, pk := range p.recv[0].gather(in[pr.id][0]) {
		scatterW(xl, pk.xVal, p.recvX[pk.from], w)
		scatterAddW(y, pk.yVal, pk.yIdx, w) // outputs owned exclusively by this proc
	}
	pc.lap(&e.pt.foldNs)
	p.own.addIntoK(kid, y, xl, w, pr.loc.acc)
	pc.lap(&e.pt.computeNs)
}

// runTwoPhase executes one processor's part of the classic algorithm in
// either direction: expand x, compute, fold the partials.
//
//spmv:hotpath
func (e *Engine) runTwoPhase(pr *proc, p *plan, x, y []float64, w int, kid kernelID) {
	in := e.pool.inbox
	pc := e.phaseClock(pr)
	xl := pr.loc.xl
	gatherW(xl, x, p.ownIdx, w)
	// Phase 0 — Expand.
	for _, sp := range p.sends {
		sp.fill(kid, x, xl, w)
		in[sp.dest][0] <- sp.buf
	}
	for _, pk := range p.recv[0].gather(in[pr.id][0]) {
		scatterW(xl, pk.xVal, p.recvX[pk.from], w)
	}
	pc.lap(&e.pt.expandNs)
	// Multiply.
	p.own.addIntoK(kid, y, xl, w, pr.loc.acc)
	pc.lap(&e.pt.computeNs)
	// Phase 1 — Fold.
	for _, sp := range p.ySends {
		sp.fill(kid, x, xl, w)
		in[sp.dest][1] <- sp.buf
	}
	for _, pk := range p.recv[1].gather(in[pr.id][1]) {
		scatterAddW(y, pk.yVal, pk.yIdx, w)
	}
	pc.lap(&e.pt.foldNs)
}
