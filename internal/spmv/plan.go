package spmv

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the compiled execution plan shared by all three
// schedules. NewEngine / NewRoutedEngine first build the human-readable
// schedule (xNeed, preGroups, hop tables — kept for ScheduleStats and the
// consistency tests), then compile it down to flat arrays so the
// steady-state Multiply performs zero heap allocations:
//
//   - segKernel / rowKernel: branch-free SoA CSR segments. Each output
//     slot has one run of local-x nonzeros and one run of external-x
//     nonzeros, so the inner loops never test the sign-encoded src that
//     localNZ uses at build time.
//   - sendPlan / fwdPlan: a packet with fixed index arrays built once;
//     only the value arrays are refilled per call.
//   - recvPlan: fixes the fold order of incoming packets by sender
//     ordinal, making y accumulation bitwise-deterministic run-to-run
//     even though channel arrival order is not.
//
// Every value buffer holds w values per index in the column-blocked
// layout (column c of index i at buf[i*w+c]) for the width w of the
// current call; w = 1 is the single-vector layout, and every helper
// below routes it onto the plain scalar loops.

// segKernel is a pair of CSR-style nonzero runs per output slot t:
// a local run reading x directly and an external run reading the
// proc's extX (or any other gathered buffer).
type segKernel struct {
	locPtr []int
	locSrc []int
	locVal []float64
	extPtr []int
	extSrc []int
	extVal []float64
}

// value computes slot t's dot-product contribution.
//
//spmv:hotpath
func (k *segKernel) value(t int, x, ext []float64) float64 {
	s := 0.0
	for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
		s += k.locVal[q] * x[k.locSrc[q]]
	}
	for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
		s += k.extVal[q] * ext[k.extSrc[q]]
	}
	return s
}

// valueBlock computes slot t's contribution for all w columns into
// acc[0:w]. x and ext use the column-blocked layout. Per column, the
// nonzeros accumulate in exactly the order value uses, so every column
// reproduces the single-vector result bit for bit.
//
//spmv:hotpath
func (k *segKernel) valueBlock(t int, x, ext []float64, w int, acc []float64) {
	acc = acc[:w]
	for c := range acc {
		acc[c] = 0
	}
	for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
		v := k.locVal[q]
		xs := x[k.locSrc[q]*w:]
		for c := range acc {
			acc[c] += v * xs[c]
		}
	}
	for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
		v := k.extVal[q]
		xs := ext[k.extSrc[q]*w:]
		for c := range acc {
			acc[c] += v * xs[c]
		}
	}
}

// rowKernel couples a segKernel with its output indices (global y rows
// for compute kernels, dense slots for routed accumulators).
type rowKernel struct {
	rows []int
	segKernel
}

// addInto accumulates every slot's value into dst[rows[t]].
//
//spmv:hotpath
func (k *rowKernel) addInto(dst, x, ext []float64) {
	for t, row := range k.rows {
		dst[row] += k.value(t, x, ext)
	}
}

// fillInto overwrites dst[t] with slot t's value; dst must have
// len(k.rows) entries (a packet's yVal buffer).
//
//spmv:hotpath
func (k *rowKernel) fillInto(dst, x, ext []float64) {
	for t := range k.rows {
		dst[t] = k.value(t, x, ext)
	}
}

// addIntoBlock is the w-wide addInto over column-blocked buffers: each
// slot's w values accumulate in acc (scratch, len >= w) and are then
// added to dst[rows[t]*w : ...]. Going through acc keeps the per-column
// floating-point order identical to value(), not just close.
//
//spmv:hotpath
func (k *rowKernel) addIntoBlock(dst, x, ext []float64, w int, acc []float64) {
	for t, row := range k.rows {
		k.valueBlock(t, x, ext, w, acc)
		out := dst[row*w : (row+1)*w]
		for c := range out {
			out[c] += acc[c]
		}
	}
}

// fillIntoBlock is the w-wide fillInto: slot t's w values overwrite
// dst[t*w : (t+1)*w] (a packet's yVal buffer).
//
//spmv:hotpath
func (k *rowKernel) fillIntoBlock(dst, x, ext []float64, w int) {
	for t := range k.rows {
		k.valueBlock(t, x, ext, w, dst[t*w:(t+1)*w])
	}
}

// compileRows groups build-time nonzeros by output row into a rowKernel
// with sorted distinct rows and separated local/external runs.
//
//spmv:deterministic
func compileRows(nzs []localNZ) rowKernel {
	var k rowKernel
	if len(nzs) == 0 {
		k.locPtr = []int{0}
		k.extPtr = []int{0}
		return k
	}
	rows := make([]int, 0, len(nzs))
	for _, nz := range nzs {
		rows = append(rows, nz.row)
	}
	rows = dedupSorted(rows)
	// rows is sorted and distinct, so slot lookup is a binary search —
	// measurably faster to build than the map[int]int this used (see
	// BenchmarkCompileRows) and allocation-free.
	slot := func(r int) int {
		t, _ := slices.BinarySearch(rows, r)
		return t
	}
	k.rows = rows
	k.locPtr = make([]int, len(rows)+1)
	k.extPtr = make([]int, len(rows)+1)
	for _, nz := range nzs {
		if nz.src >= 0 {
			k.locPtr[slot(nz.row)+1]++
		} else {
			k.extPtr[slot(nz.row)+1]++
		}
	}
	for t := 0; t < len(rows); t++ {
		k.locPtr[t+1] += k.locPtr[t]
		k.extPtr[t+1] += k.extPtr[t]
	}
	k.locSrc = make([]int, k.locPtr[len(rows)])
	k.locVal = make([]float64, k.locPtr[len(rows)])
	k.extSrc = make([]int, k.extPtr[len(rows)])
	k.extVal = make([]float64, k.extPtr[len(rows)])
	locPos := slices.Clone(k.locPtr[:len(rows)])
	extPos := slices.Clone(k.extPtr[:len(rows)])
	for _, nz := range nzs {
		t := slot(nz.row)
		if nz.src >= 0 {
			p := locPos[t]
			locPos[t]++
			k.locSrc[p] = nz.src
			k.locVal[p] = nz.val
		} else {
			p := extPos[t]
			extPos[t]++
			k.extSrc[p] = -(nz.src + 1)
			k.extVal[p] = nz.val
		}
	}
	return k
}

// valArena carves one plan's packet payloads out of a single backing
// array, so a processor's outgoing values stay contiguous in memory (and
// apart from the buffers it writes while peers read them). Re-carving for a width
// the array already covers allocates nothing, so alternating between a
// large and a small width allocates only once. A packet keeps its fixed
// index arrays at every width: a multi-RHS multiply still emits exactly
// one packet per peer per phase.
type valArena struct{ mem, free []float64 }

// reset readies the arena to carve n values in total.
func (a *valArena) reset(n int) {
	if cap(a.mem) < n {
		a.mem = make([]float64, n)
	}
	a.free = a.mem[:n]
}

func (a *valArena) take(n int) []float64 {
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// words is the number of values the packet carries per unit of width.
func (pk *packet) words() int { return len(pk.xIdx) + len(pk.yIdx) }

// carve gives the packet its value arrays for width w.
func (pk *packet) carve(a *valArena, w int) {
	pk.xVal = a.take(len(pk.xIdx) * w)
	pk.yVal = a.take(len(pk.yIdx) * w)
}

// sendPlan is one precompiled outgoing packet computed from the caller's
// x: the x entries at buf.xIdx plus grp's partials for the rows at
// buf.yIdx (which aliases grp.rows).
type sendPlan struct {
	dest int
	grp  rowKernel
	buf  packet
}

func newSendPlan(from, dest int, xIdx []int, grp rowKernel) *sendPlan {
	return &sendPlan{dest: dest, grp: grp, buf: packet{from: from, xIdx: xIdx, yIdx: grp.rows}}
}

// fill refreshes the packet's value arrays from the current x (and the
// proc's external buffer for two-phase fold groups) under the given
// kernel backend.
//
//spmv:hotpath
func (sp *sendPlan) fill(kid kernelID, x, ext []float64, w int) {
	gatherW(sp.buf.xVal, x, sp.buf.xIdx, w)
	sp.grp.fillIntoK(kid, sp.buf.yVal, x, ext, w)
}

// growBlock returns s re-sliced to n entries, reallocating only when the
// existing capacity is insufficient.
func growBlock(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ---- w-wide copy loops ----
//
// The run bodies move values between packets and buffers only through
// these helpers. Loops that read a received packet range over its
// payload, not over the receiver's slot table: a fault-containment
// release packet (fault.go) carries no payload and must be read as a
// no-op.

// gatherW sets dst[t] = src[idx[t]] for every t.
//
//spmv:hotpath
func gatherW(dst, src []float64, idx []int, w int) {
	if w == 1 {
		for t, i := range idx {
			dst[t] = src[i]
		}
		return
	}
	for t, i := range idx {
		copy(dst[t*w:(t+1)*w], src[i*w:(i+1)*w])
	}
}

// scatterW sets dst[idx[t]] = src[t] for every entry of src.
//
//spmv:hotpath
func scatterW(dst, src []float64, idx []int, w int) {
	if w == 1 {
		for t, v := range src {
			dst[idx[t]] = v
		}
		return
	}
	for t := range len(src) / w {
		copy(dst[idx[t]*w:(idx[t]+1)*w], src[t*w:(t+1)*w])
	}
}

// scatterAddW adds src[t] into dst[idx[t]] for every entry of src.
//
//spmv:hotpath
func scatterAddW(dst, src []float64, idx []int, w int) {
	if w == 1 {
		for t, v := range src {
			dst[idx[t]] += v
		}
		return
	}
	for t := range len(src) / w {
		out := dst[idx[t]*w : (idx[t]+1)*w]
		for c, v := range src[t*w : (t+1)*w] {
			out[c] += v
		}
	}
}

// copyPairsW sets dst[dIdx[t]] = src[sIdx[t]] for every t.
//
//spmv:hotpath
func copyPairsW(dst []float64, dIdx []int, src []float64, sIdx []int, w int) {
	if w == 1 {
		for t, d := range dIdx {
			dst[d] = src[sIdx[t]]
		}
		return
	}
	for t, d := range dIdx {
		copy(dst[d*w:(d+1)*w], src[sIdx[t]*w:(sIdx[t]+1)*w])
	}
}

// addPairsW adds src[sIdx[t]] into dst[dIdx[t]] for every t.
//
//spmv:hotpath
func addPairsW(dst []float64, dIdx []int, src []float64, sIdx []int, w int) {
	if w == 1 {
		for t, d := range dIdx {
			dst[d] += src[sIdx[t]]
		}
		return
	}
	for t, d := range dIdx {
		out := dst[d*w : (d+1)*w]
		for c, v := range src[sIdx[t]*w : (sIdx[t]+1)*w] {
			out[c] += v
		}
	}
}

// recvPlan stashes one phase's incoming packets by sender ordinal so they
// are processed in ascending sender order regardless of arrival order.
type recvPlan struct {
	ord  map[int]int
	pend []packet
	seen []bool
}

func newRecvPlan(senders []int) recvPlan {
	r := recvPlan{
		ord:  make(map[int]int, len(senders)),
		pend: make([]packet, len(senders)),
		seen: make([]bool, len(senders)),
	}
	for t, s := range senders {
		r.ord[s] = t
	}
	return r
}

// gather receives until every expected sender has delivered one packet
// and returns them ordered by sender. Counting senders rather than raw
// packets matters under fault containment: a panicked worker floods a
// release packet into every inbox of both phases (fault.go), including
// inboxes whose gather does not expect that worker in that phase. If a
// raw count admitted such a packet, the barrier would complete early
// with a stale pend entry from the previous dispatch — aliasing a send
// buffer its owner is concurrently rewriting. Packets from unexpected
// or already-seen senders are therefore dropped; the 2K inbox capacity
// absorbs anything left unconsumed on a poisoned engine. The returned
// slice is reused across calls.
//
//spmv:hotpath
func (r *recvPlan) gather(ch <-chan packet) []packet {
	for n := 0; n < len(r.pend); {
		pk := <-ch
		t, ok := r.ord[pk.from]
		if !ok || r.seen[t] {
			continue
		}
		r.seen[t] = true
		r.pend[t] = pk
		n++
	}
	for t := range r.seen {
		r.seen[t] = false
	}
	return r.pend
}

// sortedKeys returns m's keys in ascending order — every send loop
// iterates destinations through this, which is what makes packet emission
// deterministic.
func sortedKeys[V any](m map[int]V) []int {
	return slices.Sorted(maps.Keys(m))
}

// dir selects the operator a multiply applies: y ← Ax or y ← Aᵀx.
type dir uint8

const (
	fwd   dir = iota // y ← Ax
	trans            // y ← Aᵀx
)

// workerPool is the persistent-worker barrier shared by Engine and
// RoutedEngine: K goroutines parked on per-worker start channels, a
// WaitGroup to collect them, the per-phase packet inboxes, and the
// per-call direction, vectors and width published through the pool.
// dispatch performs no heap allocations.
//
// A panic inside a worker is contained, not fatal: the worker records it,
// releases its peers' gathers (see fault.go), and the dispatch returns a
// typed *EngineFaultError with the pool poisoned against further
// dispatches.
type workerPool struct {
	d         dir
	x, y      []float64
	w         int
	start     []chan struct{}
	done      sync.WaitGroup
	closeOnce sync.Once
	closed    atomic.Bool

	// inbox[i][ph] is worker i's inbox for phase ph. One inbox per phase:
	// a fast sender must not inject a later-phase packet into an earlier
	// receive loop.
	inbox [][]chan packet

	// hook wraps an injectable per-worker fault hook (see
	// WorkerFaultHooker); stored boxed because atomic.Value cannot hold a
	// bare nil.
	hook atomic.Value // of hookBox

	poisoned atomic.Bool
	faultMu  sync.Mutex
	faults   []WorkerPanic
}

type hookBox struct{ f func(worker int) }

func (p *workerPool) setHook(h func(worker int)) { p.hook.Store(hookBox{f: h}) }

// launch creates the inboxes and spawns n workers; each waits for a
// start signal, executes run with the published call, and reports done.
func (p *workerPool) launch(n, phases int, run func(i int, d dir, x, y []float64, w int)) {
	p.inbox = make([][]chan packet, n)
	p.start = make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		p.inbox[i] = make([]chan packet, phases)
		for ph := range p.inbox[i] {
			// Capacity 2n: sends never block, so no deadlock between
			// mutually waiting processors — even when fault containment
			// floods one release packet per worker on top of the at most
			// one real packet per sender per phase (see fault.go).
			p.inbox[i][ph] = make(chan packet, 2*n)
		}
		ch := make(chan struct{}, 1)
		p.start[i] = ch
		go func(i int, ch chan struct{}) {
			for range ch {
				p.runContained(i, run)
				p.done.Done()
			}
		}(i, ch)
	}
}

// runContained executes one worker turn with panic containment: a panic
// anywhere in the plan (or the injected fault hook) is recorded, the
// pool is poisoned, and the worker's peers are released so the dispatch
// barrier still closes. The worker goroutine itself survives, parked for
// Close.
func (p *workerPool) runContained(i int, run func(i int, d dir, x, y []float64, w int)) {
	defer func() {
		if r := recover(); r != nil {
			p.recordFault(i, r)
			// release must not take the barrier down with a secondary
			// panic; the engine is already poisoned.
			defer func() { _ = recover() }()
			p.releasePeers(i)
		}
	}()
	if hb, ok := p.hook.Load().(hookBox); ok && hb.f != nil {
		hb.f(i)
	}
	run(i, p.d, p.x, p.y, p.w)
}

// recordFault notes a contained worker panic and poisons the pool before
// the dispatch barrier closes, so even a racing dispatcher observes it.
func (p *workerPool) recordFault(worker int, v any) {
	p.faultMu.Lock()
	p.faults = append(p.faults, WorkerPanic{Worker: worker, Value: fmt.Sprint(v)})
	p.faultMu.Unlock()
	p.poisoned.Store(true)
}

// faultErr materializes the poisoned state as a typed error; nil while
// healthy. The fast path is one atomic load.
func (p *workerPool) faultErr(op string) error {
	if !p.poisoned.Load() {
		return nil
	}
	p.faultMu.Lock()
	panics := append([]WorkerPanic(nil), p.faults...)
	p.faultMu.Unlock()
	return &EngineFaultError{Op: op, Panics: panics}
}

// opName names the dispatch variant for error messages. Width 1 is the
// single-vector call — MultiplyBlock(X, Y, 1) is Multiply by contract.
func opName(d dir, w int) string {
	switch {
	case d == trans && w > 1:
		return "MultiplyTransposeBlock"
	case d == trans:
		return "MultiplyTranspose"
	case w > 1:
		return "MultiplyBlock"
	default:
		return "Multiply"
	}
}

// dispatch zeroes y, publishes the call, releases every worker, and
// waits for all of them to finish. It returns *ClosedError after Close,
// and *EngineFaultError once a worker panic has poisoned the pool —
// before running anything, so a poisoned plan never executes over
// corrupted buffers.
func (p *workerPool) dispatch(d dir, x, y []float64, w int) error {
	if p.closed.Load() {
		// A sharing layer (refcounted pools, pipelines) that races Multiply
		// against Close gets a typed error instead of the runtime's
		// "send on closed channel" panic.
		return &ClosedError{Op: opName(d, w)}
	}
	if err := p.faultErr(opName(d, w)); err != nil {
		return err
	}
	for i := range y {
		y[i] = 0
	}
	p.d, p.x, p.y, p.w = d, x, y, w
	p.done.Add(len(p.start))
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	p.done.Wait()
	p.x, p.y = nil, nil
	return p.faultErr(opName(d, w))
}

// close releases the parked workers permanently; dispatch must not be
// called afterwards. Closing twice is a no-op.
func (p *workerPool) close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		for _, ch := range p.start {
			close(ch)
		}
	})
}
