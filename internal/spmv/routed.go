package spmv

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/distrib"
)

// RoutedEngine executes the s2D-b schedule (§VI-B1): the fused [x̂,ŷ]
// packet from P_k to P_ℓ travels via the mesh intermediate at
// (RowOf(ℓ), ColOf(k)). Phase 1 moves packets within mesh columns, phase 2
// within mesh rows. Intermediates combine payloads: an x entry needed by
// several parts in one mesh row ships to that row once, and partial y
// results for the same output entry are summed before forwarding. Each
// processor therefore contacts fewer than P_r + P_c peers in total.
//
// Like Engine, the routed engine compiles its static schedule into a flat
// plan at construction — dense routing buffers with fixed slot layouts and
// precompiled forward packets — and executes it on persistent workers, so
// steady-state Multiply is allocation- and goroutine-spawn-free.
type RoutedEngine struct {
	base
	mesh   core.Mesh
	rprocs []*rproc
}

// rproc is one processor of the routed engine: its schedule, the
// two-hop routing tables built from it, and the compiled plans.
type rproc struct {
	sched

	// Phase-1 x payloads: hop1X[mid] lists locally-owned x indices routed
	// via mid. Phase-2 forwarding schedule at an intermediate:
	// hop2X[dest] lists x indices to forward to dest.
	hop1X map[int][]int
	hop2X map[int][]int

	// Static sender sets per phase (destinations this proc will message).
	phase1Dests map[int]struct{}
	phase2Dests map[int]struct{}

	// Dense slot layouts of the routing buffers: xSlot maps a routed x
	// column index to its column-space slot, ySlot a combined y row to
	// its row-space slot. Every x index this proc ever routes and every
	// y row it ever combines has a fixed slot.
	xSlot map[int]int
	ySlot map[int]int
	// route[colSpace] and route[rowSpace] are the dense routing buffers,
	// sliced for the call's width. The forward plan carries x values in
	// the column space and combines partials in the row space; the
	// transpose swaps the roles. Calls on one engine never overlap, so
	// both directions share the buffers.
	route [2][]float64

	// plans[fwd] is compiled at construction, plans[trans] on the first
	// transpose multiply (see routed_transpose.go). Both run over loc.
	plans [2]*rplan
	loc   localVec
}

// Routing-buffer spaces (see rproc.route).
const (
	colSpace = 0
	rowSpace = 1
)

// rplan is one processor's compiled two-hop schedule in one direction.
// The routed transpose is the forward route reversed edge for edge, so
// both directions compile to this one type and run through runRouted.
type rplan struct {
	// carry is the routing-buffer space holding routed x values, comb
	// the one combining partials en route.
	carry, comb int

	// seedSlot/seedIdx: locally-owned x entries this proc routes as its
	// own intermediate, carry[seedSlot[t]] = x[seedIdx[t]].
	seedSlot, seedIdx []int
	// self accumulates partials routed through this proc itself straight
	// into comb; its rows are comb slots. It reads owned x only.
	self rowKernel
	// Phase-1 packets to the intermediates, sorted by destination.
	hop1 []*sendPlan
	// hop1Recv[sender] translates that sender's fixed payload: x entries
	// into carry slots, partials combined into comb slots.
	hop1Recv map[int]hopRecv
	// extSlot/extFrom: routed x values this proc consumes itself,
	// xl[extSlot[t]] = carry[extFrom[t]] once phase 1 is in.
	extSlot, extFrom []int
	// Phase-2 forwards, sorted by destination: values gathered from the
	// routing buffers.
	hop2 []*fwdPlan
	// hop2Recv[sender] maps the t-th forwarded x entry to its position
	// in the local vector's external tail.
	hop2Recv map[int][]int
	// foldRow/foldSlot: outputs this proc owns whose combined partials
	// sit in comb, y[foldRow[t]] += comb[foldSlot[t]].
	foldRow, foldSlot []int
	// own computes the locally-owned outputs.
	own  rowKernel
	recv [2]recvPlan
	planIO
}

// hopRecv is the slot translation of one phase-1 sender's payload.
type hopRecv struct {
	x, y []int
}

// fwdPlan is a precompiled phase-2 packet: fixed index arrays, values
// gathered from the sender's dense routing buffers each call.
type fwdPlan struct {
	dest  int
	xSlot []int
	ySlot []int
	buf   packet
}

// localize rewrites every kernel of the plan to its local vector (see
// localizer) once the phase-1 packets exist.
func (p *rplan) localize(lz localizer) {
	ks := []*rowKernel{&p.own, &p.self}
	for _, sp := range p.hop1 {
		ks = append(ks, &sp.grp)
	}
	p.ownIdx = lz.localize(ks...)
}

// listOut lists the plan's outgoing packets, phase 1 first, once both
// phases' packets exist.
func (p *rplan) listOut() {
	for _, sp := range p.hop1 {
		p.out = append(p.out, &sp.buf)
	}
	for _, fp := range p.hop2 {
		p.out = append(p.out, &fp.buf)
	}
}

// NewRoutedEngine builds the two-hop schedule for a fused s2D distribution
// on the given mesh, compiles it, and starts the persistent workers.
//
//spmv:deterministic
func NewRoutedEngine(d *distrib.Distribution, mesh core.Mesh) (*RoutedEngine, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := checkIndexRange(d); err != nil {
		return nil, err
	}
	if !d.Fused {
		return nil, fmt.Errorf("spmv: routed engine requires a fused (s2D) distribution")
	}
	if mesh.Pr*mesh.Pc != d.K {
		return nil, fmt.Errorf("spmv: mesh %v does not cover K=%d", mesh, d.K)
	}
	e := &RoutedEngine{mesh: mesh}
	e.d = d
	for _, sc := range splitNZ(d) {
		e.rprocs = append(e.rprocs, &rproc{
			sched:       sc,
			hop1X:       make(map[int][]int),
			hop2X:       make(map[int][]int),
			phase1Dests: make(map[int]struct{}),
			phase2Dests: make(map[int]struct{}),
		})
	}

	// Build the x routing tables: the x entries dst needs from src travel
	// via mid.
	for _, pr := range e.rprocs {
		src := pr.id
		for dst, idxs := range pr.xNeed { //spmvlint:unordered per-key routing-table writes; every list is deduplicated and sorted below
			mid := mesh.PartAt(mesh.RowOf(dst), mesh.ColOf(src))
			if mid != src {
				pr.hop1X[mid] = append(pr.hop1X[mid], idxs...)
				pr.phase1Dests[mid] = struct{}{}
			}
			if dst != mid {
				e.rprocs[mid].hop2X[dst] = append(e.rprocs[mid].hop2X[dst], idxs...)
				e.rprocs[mid].phase2Dests[dst] = struct{}{}
			}
		}
	}
	// Deduplicate hop1X payloads (two destinations in the same mesh row
	// share the shipment).
	for _, pr := range e.rprocs {
		for mid, idxs := range pr.hop1X {
			pr.hop1X[mid] = dedupSorted(idxs)
		}
		for dst, idxs := range pr.hop2X {
			pr.hop2X[dst] = dedupSorted(idxs)
		}
	}
	// y routing structure: source k with partials for dest ℓ messages
	// mid=(RowOf(ℓ), ColOf(k)) in phase 1; mid messages ℓ in phase 2.
	for _, pr := range e.rprocs {
		for dest := range pr.preGroups { //spmvlint:unordered set insertion; commutative
			mid := mesh.PartAt(mesh.RowOf(dest), mesh.ColOf(pr.id))
			if mid != pr.id {
				pr.phase1Dests[mid] = struct{}{}
			}
			if dest != mid {
				e.rprocs[mid].phase2Dests[dest] = struct{}{}
			}
		}
	}
	e.compile()
	e.init(e.ensureWidth)
	e.pool.launch(d.K, 2, func(i int, dr dir, x, y []float64, w int) {
		pr := e.rprocs[i]
		// curKern is written by the dispatcher before the start-channel
		// send, so this read is ordered after it.
		e.runRouted(pr, pr.plans[dr], x, y, w, e.curKern)
	})
	return e, nil
}

// ensureWidth compiles the transpose plan on its first use and re-slices
// the routing buffers and direction d's plan for width w; it runs with
// the workers parked.
func (e *RoutedEngine) ensureWidth(d dir, w int) {
	if e.rprocs[0].plans[d] == nil {
		e.compileTranspose()
	}
	for _, pr := range e.rprocs {
		pr.route[colSpace] = growBlock(pr.route[colSpace], len(pr.xSlot)*w)
		pr.route[rowSpace] = growBlock(pr.route[rowSpace], len(pr.ySlot)*w)
		pr.plans[d].ready(&pr.loc, w)
	}
}

// midNZ returns, per processor p and intermediate mid, p's precompute
// nonzeros routed via mid (mid may be p itself for same-mesh-row
// destinations). Destinations ascend: the concatenation order fixes the
// within-row nonzero order compileRows bakes into the kernels, and float
// accumulation order must not vary across rebuilds.
func (e *RoutedEngine) midNZ() []map[int][]localNZ {
	mesh := e.mesh
	midNZ := make([]map[int][]localNZ, len(e.rprocs))
	for _, pr := range e.rprocs {
		midNZ[pr.id] = make(map[int][]localNZ)
		for _, dest := range sortedKeys(pr.preGroups) {
			mid := mesh.PartAt(mesh.RowOf(dest), mesh.ColOf(pr.id))
			midNZ[pr.id][mid] = append(midNZ[pr.id][mid], pr.preGroups[dest]...)
		}
	}
	return midNZ
}

// compile lowers the routing schedule to the forward plan.
//
//spmv:deterministic
func (e *RoutedEngine) compile() {
	midNZ := e.midNZ()
	lz := newLocalizer(e.d.A.Cols)
	for _, pr := range e.rprocs {
		p := &rplan{
			carry:    colSpace,
			comb:     rowSpace,
			own:      compileRows(pr.ownRows),
			hop1Recv: make(map[int]hopRecv),
			hop2Recv: make(map[int][]int),
		}
		p.nExt = len(pr.extSlot)
		pr.plans[fwd] = p

		// Dense routed-x layout: everything this proc forwards in phase 2
		// plus everything arriving in phase 1.
		xIdxs := make([]int, 0)
		for _, idxs := range pr.hop2X {
			xIdxs = append(xIdxs, idxs...)
		}
		for _, s := range e.rprocs {
			xIdxs = append(xIdxs, s.hop1X[pr.id]...)
		}
		xIdxs = dedupSorted(xIdxs)
		pr.xSlot = make(map[int]int, len(xIdxs))
		for t, j := range xIdxs {
			pr.xSlot[j] = t
		}

		// Dense routed-y layout: every row this proc combines, own partials
		// and incoming alike.
		yRows := make([]int, 0)
		for s := range e.rprocs {
			for _, nz := range midNZ[s][pr.id] {
				yRows = append(yRows, nz.row)
			}
		}
		yRows = dedupSorted(yRows)
		pr.ySlot = make(map[int]int, len(yRows))
		for t, r := range yRows {
			pr.ySlot[r] = t
		}

		// Locally-owned x entries this proc forwards as its own
		// intermediate (never shipped in phase 1), in slot order.
		var selfX []slotIdx
		for _, idxs := range pr.hop2X {
			for _, j := range idxs {
				if e.d.XPart[j] == pr.id {
					selfX = append(selfX, slotIdx{slot: pr.xSlot[j], idx: j})
				}
			}
		}
		sort.Slice(selfX, func(a, b int) bool { return selfX[a].slot < selfX[b].slot })
		for _, sx := range dedupSelfX(selfX) {
			p.seedSlot = append(p.seedSlot, sx.slot)
			p.seedIdx = append(p.seedIdx, sx.idx)
		}

		// Self-routed partials accumulate straight into the row buffer.
		p.self = compileRows(midNZ[pr.id][pr.id])
		for t, r := range p.self.rows {
			p.self.rows[t] = pr.ySlot[r]
		}

		// Phase-1 packets, sorted by intermediate.
		for _, mid := range sortedKeys(pr.phase1Dests) {
			p.hop1 = append(p.hop1, newSendPlan(pr.id, mid, pr.hop1X[mid], compileRows(midNZ[pr.id][mid])))
		}
		p.localize(lz)

		// Phase-2 forwards, sorted by destination: x from hop2X, y from the
		// routed rows owned by that destination.
		destRows := make(map[int][]int, len(pr.phase2Dests))
		for _, r := range yRows {
			if dst := e.d.YPart[r]; dst != pr.id {
				destRows[dst] = append(destRows[dst], r)
			}
		}
		for _, dst := range sortedKeys(pr.phase2Dests) {
			xIdx, rows := pr.hop2X[dst], destRows[dst]
			fp := &fwdPlan{dest: dst, buf: packet{from: pr.id, xIdx: xIdx, yIdx: rows}}
			fp.xSlot = make([]int, len(xIdx))
			for t, j := range xIdx {
				fp.xSlot[t] = pr.xSlot[j]
			}
			fp.ySlot = make([]int, len(rows))
			for t, r := range rows {
				fp.ySlot[t] = pr.ySlot[r]
			}
			p.hop2 = append(p.hop2, fp)
		}

		// Rows folded locally.
		for _, r := range yRows {
			if e.d.YPart[r] == pr.id {
				p.foldRow = append(p.foldRow, r)
				p.foldSlot = append(p.foldSlot, pr.ySlot[r])
			}
		}
		p.listOut()
	}

	// Receive translations: each sender's fixed payload is known, so the
	// receiver precomputes slot arrays instead of doing per-word map
	// lookups at run time. An x value whose final destination is the
	// intermediate itself also lands in its local vector's external tail.
	for _, pr := range e.rprocs {
		p := pr.plans[fwd]
		nOwn := len(p.ownIdx)
		var p1Senders, p2Senders []int
		for _, s := range e.rprocs {
			if s.id == pr.id {
				continue
			}
			if _, ok := s.phase1Dests[pr.id]; ok {
				p1Senders = append(p1Senders, s.id)
				idxs := s.hop1X[pr.id]
				hr := hopRecv{x: make([]int, len(idxs))}
				for t, j := range idxs {
					hr.x[t] = pr.xSlot[j]
					if slot, ok := pr.extSlot[j]; ok {
						p.extSlot = append(p.extSlot, nOwn+slot)
						p.extFrom = append(p.extFrom, hr.x[t])
					}
				}
				rows := compiledGroupRows(midNZ[s.id][pr.id])
				hr.y = make([]int, len(rows))
				for t, r := range rows {
					hr.y[t] = pr.ySlot[r]
				}
				p.hop1Recv[s.id] = hr
			}
			if _, ok := s.phase2Dests[pr.id]; ok {
				p2Senders = append(p2Senders, s.id)
				idxs := s.hop2X[pr.id]
				slots := make([]int, len(idxs))
				for t, j := range idxs {
					slots[t] = nOwn + pr.extSlot[j]
				}
				p.hop2Recv[s.id] = slots
			}
		}
		p.recv[0] = newRecvPlan(p1Senders)
		p.recv[1] = newRecvPlan(p2Senders)
	}
}

type slotIdx struct{ slot, idx int }

func dedupSelfX(xs []slotIdx) []slotIdx {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x.slot != xs[i-1].slot {
			out = append(out, x)
		}
	}
	return out
}

// dedupSorted sorts xs and returns its distinct values in a right-sized
// copy: plans keep the result for their lifetime, and xs is often a
// nonzero-length scratch list with far fewer distinct values.
func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return slices.Clone(out)
}

// runRouted executes one processor's part of the two-hop schedule in
// either direction: gather the owned x entries into the local vector,
// seed the routing buffers with what this proc routes as its own
// intermediate, ship phase-1 packets to the intermediates,
// combine what arrives (x values overwrite carry slots, partials sum in
// comb slots — the same output entry from many sources), forward the
// combined payloads in phase 2, fold the outputs this proc owns, and
// run the local Compute kernel.
//
//spmv:hotpath
func (e *RoutedEngine) runRouted(pr *rproc, p *rplan, x, y []float64, w int, kid kernelID) {
	in := e.pool.inbox
	carry, comb := pr.route[p.carry], pr.route[p.comb]
	xl, acc := pr.loc.xl, pr.loc.acc
	for i := range comb {
		comb[i] = 0
	}
	gatherW(xl, x, p.ownIdx, w)
	copyPairsW(carry, p.seedSlot, x, p.seedIdx, w)
	p.self.addIntoK(kid, comb, xl, w, acc)
	// Phase 1 sends.
	for _, sp := range p.hop1 {
		sp.fill(kid, x, xl, w)
		in[sp.dest][0] <- sp.buf
	}
	// Phase 1 receives: combine into the dense routing buffers.
	for _, pk := range p.recv[0].gather(in[pr.id][0]) {
		hr := p.hop1Recv[pk.from]
		scatterW(carry, pk.xVal, hr.x, w)
		scatterAddW(comb, pk.yVal, hr.y, w)
	}
	copyPairsW(xl, p.extSlot, carry, p.extFrom, w)
	// Phase 2 sends: forward combined payloads to final destinations.
	for _, fp := range p.hop2 {
		gatherW(fp.buf.xVal, carry, fp.xSlot, w)
		gatherW(fp.buf.yVal, comb, fp.ySlot, w)
		in[fp.dest][1] <- fp.buf
	}
	// Outputs this proc owns fold straight out of the routing buffer.
	addPairsW(y, p.foldRow, comb, p.foldSlot, w)
	// Phase 2 receives.
	for _, pk := range p.recv[1].gather(in[pr.id][1]) {
		scatterW(xl, pk.xVal, p.hop2Recv[pk.from], w)
		scatterAddW(y, pk.yVal, pk.yIdx, w)
	}
	// Compute local outputs.
	p.own.addIntoK(kid, y, xl, w, acc)
}
