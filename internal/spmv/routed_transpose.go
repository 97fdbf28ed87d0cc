package spmv

import "sort"

// This file compiles y ← Aᵀx for the routed two-hop engine by reversing
// the compiled forward route edge for edge: the transpose's phase 1 is
// the reverse of the forward phase 2, its phase 2 the reverse of the
// forward phase 1, and every intermediate keeps its combining role with
// the payload directions swapped. An x entry that fanned out through an
// intermediate to several consumers becomes several partial sums
// combining at that intermediate on the way back to the owner, and a
// partial-sum tree becomes an x broadcast tree — so message counts,
// index sets, and payload sizes all match the forward plan's.
//
// The dense routing buffers swap roles too: the row-space buffer
// carries the transpose's routed x values, the column-space buffer
// combines its partials. The result is an rplan like the forward one,
// executed by the same runRouted body.

// compileTranspose compiles every processor's routed transpose plan,
// with the workers parked.
func (e *RoutedEngine) compileTranspose() {
	mesh := e.mesh
	midNZ := e.midNZ()
	lz := newLocalizer(e.d.A.Rows)
	for _, pr := range e.rprocs {
		f := pr.plans[fwd]
		ext := transposeExtSlots(pr.preGroups)
		p := &rplan{
			carry: rowSpace,
			comb:  colSpace,
			// Rows this proc owns and routes as its own intermediate seed
			// the row buffer; columns it owns whose partials combined in the
			// column buffer (their consumers reached them via this proc
			// itself) fold from it: the forward fold and seed, swapped.
			seedSlot: f.foldSlot,
			seedIdx:  f.foldRow,
			foldRow:  f.seedIdx,
			foldSlot: f.seedSlot,
			hop1Recv: make(map[int]hopRecv),
			hop2Recv: make(map[int][]int),
		}
		p.nExt = len(ext)
		extIdx := invertSlots(pr.extSlot) // forward slot → global column

		// Split this proc's nonzeros into the transpose frame.
		var own, selfNZ []localNZ
		hop1Pre := make(map[int][]localNZ)
		for _, nz := range pr.ownRows {
			if nz.src >= 0 {
				own = append(own, localNZ{row: nz.src, src: nz.row, val: nz.val})
				continue
			}
			// External column: the partial retraces the column's forward
			// delivery path — via the intermediate that shipped it here, or
			// straight into the column buffer when this proc was its own
			// intermediate.
			j := extIdx[-(nz.src + 1)]
			mid := mesh.PartAt(mesh.RowOf(pr.id), mesh.ColOf(e.d.XPart[j]))
			tnz := localNZ{row: j, src: nz.row, val: nz.val}
			if mid == pr.id {
				selfNZ = append(selfNZ, tnz)
			} else {
				hop1Pre[mid] = append(hop1Pre[mid], tnz)
			}
		}
		for _, dst := range sortedKeys(pr.preGroups) {
			for _, nz := range pr.preGroups[dst] {
				own = append(own, localNZ{row: nz.src, src: -(ext[nz.row] + 1), val: nz.val})
			}
		}
		p.own = compileRows(own)
		p.self = compileRows(selfNZ)
		for i, j := range p.self.rows {
			p.self.rows[i] = pr.xSlot[j]
		}

		// Phase-1 packets reverse the forward phase-2 packets into pr: the
		// x rows pr owns (which that sender combined for it, in the forward
		// packet's order) and the partials for the columns it delivered.
		for _, s := range e.rprocs {
			if _, ok := s.phase2Dests[pr.id]; !ok || s.id == pr.id {
				continue
			}
			for _, fp := range s.plans[fwd].hop2 {
				if fp.dest == pr.id {
					p.hop1 = append(p.hop1, newSendPlan(pr.id, s.id, fp.buf.yIdx, compileRows(hop1Pre[s.id])))
					break
				}
			}
		}
		// Incoming phase-1 packets retrace pr's own forward forwards: x
		// rows land where that forward gathered its partials, partials
		// combine where it gathered its x values.
		for _, fp := range f.hop2 {
			p.hop1Recv[fp.dest] = hopRecv{x: fp.ySlot, y: fp.xSlot}
		}

		p.localize(lz)
		nOwn := len(p.ownIdx)

		// Rows consumed here that route through this proc itself.
		for _, dst := range sortedKeys(pr.preGroups) {
			if mesh.PartAt(mesh.RowOf(dst), mesh.ColOf(pr.id)) != pr.id {
				continue
			}
			for _, i := range compiledGroupRows(pr.preGroups[dst]) {
				p.extSlot = append(p.extSlot, nOwn+ext[i])
				p.extFrom = append(p.extFrom, pr.ySlot[i])
			}
		}

		// Phase-2 forwards reverse the forward phase-1 packets into pr: x
		// rows gathered from the row buffer (slots alias the forward
		// partial slots) and combined partials from the column buffer
		// (slots alias the forward x slots).
		senders := make([]int, 0, len(f.hop1Recv))
		for k := range f.hop1Recv {
			senders = append(senders, k)
		}
		sort.Ints(senders)
		for _, k := range senders {
			hr := f.hop1Recv[k]
			p.hop2 = append(p.hop2, &fwdPlan{
				dest:  k,
				xSlot: hr.y,
				ySlot: hr.x,
				buf: packet{
					from: pr.id,
					xIdx: compiledGroupRows(midNZ[k][pr.id]),
					yIdx: e.rprocs[k].hop1X[pr.id],
				},
			})
		}
		for _, sp := range f.hop1 {
			slots := make([]int, len(sp.grp.rows))
			for i, r := range sp.grp.rows {
				slots[i] = nOwn + ext[r]
			}
			p.hop2Recv[sp.dest] = slots
		}

		// Transpose phase-1 packets come from pr's forward phase-2
		// destinations, phase-2 packets from its phase-1 ones.
		t1Senders := make([]int, 0, len(f.hop2))
		for _, fp := range f.hop2 {
			t1Senders = append(t1Senders, fp.dest)
		}
		t2Senders := make([]int, 0, len(f.hop1))
		for _, sp := range f.hop1 {
			t2Senders = append(t2Senders, sp.dest)
		}
		p.recv[0] = newRecvPlan(t1Senders)
		p.recv[1] = newRecvPlan(t2Senders)
		p.listOut()
		pr.plans[trans] = p
	}
}
