package spmv

// This file compiles the transpose plan y ← Aᵀx from the forward
// schedule. The paper's constructions treat the row and column spaces
// symmetrically, so a distribution built for y ← Ax already contains the
// transpose's communication schedule: the fold messages reversed become
// the transpose's expand, the expand messages reversed become its fold.
// Concretely, for every forward packet k→ℓ there is exactly one
// transpose packet ℓ→k whose x payload covers the rows of the forward
// packet's y partials and whose y partials cover the forward packet's x
// entries — message counts, index sets, and payload sizes all match the
// forward plan's.
//
// In the transpose frame, x is indexed by rows (length Rows, owned by
// YPart) and y by columns (length Cols, owned by XPart). Each
// processor's transpose plan is compiled lazily on the first transpose
// multiply, into the same plan type the forward direction uses, and
// runs through the same body with zero steady-state heap allocations.

// invertSlots turns an index→slot map into its slot→index array.
func invertSlots(m map[int]int) []int {
	out := make([]int, len(m))
	for idx, slot := range m { //spmvlint:unordered slot map is a bijection; each key writes its own slot
		out[slot] = idx
	}
	return out
}

// transposeExtSlots assigns the transpose's external-row slots: the rows
// a processor computed forward fold partials for, in deterministic order
// (destinations ascending, rows ascending), so rebuilt engines produce
// bit-identical transposes.
func transposeExtSlots(preGroups map[int][]localNZ) map[int]int {
	ext := make(map[int]int)
	for _, dst := range sortedKeys(preGroups) {
		for _, i := range compiledGroupRows(preGroups[dst]) {
			if _, ok := ext[i]; !ok {
				ext[i] = len(ext)
			}
		}
	}
	return ext
}

// compileTranspose compiles every processor's transpose plan. Fused:
// the transpose packet pr→k pairs the x rows k needs (the rows of k's
// forward partials for pr) with pr's precomputed partials for the
// columns k owns (the columns k shipped to pr); under s2D every
// partial's source row is local, so the transpose is single-phase too.
// Two-phase: phase 0 ships x rows from their owners to every proc
// holding nonzeros in them (reverse of the forward fold), phase 1 ships
// column partials to the column owners (reverse of the forward expand);
// a general 2D nonzero can have both spaces remote, so the partial
// kernels read external slots and fill only after the phase-0 receives —
// mirroring the forward order.
func (e *Engine) compileTranspose() {
	ext := make([]map[int]int, len(e.procs))
	for i, pr := range e.procs {
		ext[i] = transposeExtSlots(pr.preGroups)
	}
	plans := make([]*plan, len(e.procs))
	lz := newLocalizer(e.d.A.Rows)
	for i, pr := range e.procs {
		own, pre := e.transposeKernels(pr, ext[i])
		// x rows pr owns that a peer's forward partials covered.
		xOut := make(map[int][]int)
		for _, other := range e.procs {
			if len(other.preGroups[pr.id]) > 0 {
				xOut[other.id] = compiledGroupRows(other.preGroups[pr.id])
			}
		}
		plans[i] = compilePlan(lz, pr.id, e.fused, own, pre, xOut, len(ext[i]))
		pr.plans[trans] = plans[i]
	}
	linkPlans(plans, ext, e.phases())
}

// transposeKernels splits one processor's nonzeros into the transpose
// compute kernel (locally-owned output columns) and the per-owner
// partial groups (remote output columns), in the transpose frame:
// kernel "row" = global column, source = global row or -(ext slot+1).
func (e *Engine) transposeKernels(pr *proc, ext map[int]int) (own []localNZ, pre map[int][]localNZ) {
	d := e.d
	extIdx := invertSlots(pr.extSlot) // forward slot → global column
	pre = make(map[int][]localNZ)
	add := func(nz localNZ) {
		src := nz.row
		if d.YPart[nz.row] != pr.id {
			src = -(ext[nz.row] + 1)
		}
		j := nz.src
		if j < 0 {
			j = extIdx[-(nz.src + 1)]
		}
		tnz := localNZ{row: j, src: src, val: nz.val}
		if d.XPart[j] == pr.id {
			own = append(own, tnz)
		} else {
			pre[d.XPart[j]] = append(pre[d.XPart[j]], tnz)
		}
	}
	for _, nz := range pr.ownRows {
		add(nz)
	}
	// Sorted destination order keeps the kernels' nonzero order — and so
	// the floating-point sums — identical across rebuilt engines.
	for _, dst := range sortedKeys(pr.preGroups) {
		for _, nz := range pr.preGroups[dst] {
			add(nz)
		}
	}
	return own, pre
}
