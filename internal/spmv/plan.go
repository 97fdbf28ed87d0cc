package spmv

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/distrib"
)

// This file holds the compiled execution plan shared by all three
// schedules. NewEngine / NewRoutedEngine first build the human-readable
// schedule (xNeed, preGroups, hop tables — kept for ScheduleStats and the
// consistency tests), then compile it down to flat arrays so the
// steady-state Multiply performs zero heap allocations:
//
//   - segKernel / rowKernel: branch-free SoA CSR, one run of int32
//     positions per output slot over the processor's local vector xl
//     (see localizer): the owned x entries the plan reads, gathered
//     once per call, then the external slots the receives fill. The
//     inner loops never test the sign-encoded src that localNZ uses at
//     build time, and never touch the caller's scattered x.
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

// segKernel is one CSR run per output slot t: val[q] times xl[src[q]]
// for q in [ptr[t], ptr[t+1]), where xl is the processor's local vector
// (see localizer). Within a slot the nonzeros reading owned x come first
// and those reading external slots follow, each in build order — the
// accumulation order the engine's output bits are pinned to.
type segKernel struct {
	ptr []int32
	src []int32
	val []float64
}

// run returns slot t's local-vector positions and values, equal in
// length, so the loops over them index val without a bounds check.
func (k *segKernel) run(t int) ([]int32, []float64) {
	lo, hi := k.ptr[t], k.ptr[t+1]
	src := k.src[lo:hi]
	return src, k.val[lo:hi][:len(src)]
}

// value computes slot t's dot-product contribution.
//
//spmv:hotpath
func (k *segKernel) value(t int, xl []float64) float64 {
	src, val := k.run(t)
	s := 0.0
	for q, j := range src {
		s += val[q] * xl[j]
	}
	return s
}

// valueBlock computes slot t's contribution for all w columns into
// acc[0:w]. xl uses the column-blocked layout. Columns go four at a time
// through register accumulators, the rest one at a time; per column the
// nonzeros accumulate from zero in exactly the order value uses, so
// every column reproduces the single-vector result bit for bit.
//
//spmv:hotpath
func (k *segKernel) valueBlock(t int, xl []float64, w int, acc []float64) {
	acc = acc[:w]
	src, val := k.run(t)
	c := 0
	for ; c+4 <= w; c += 4 {
		var a0, a1, a2, a3 float64
		for q, j := range src {
			v, xs := val[q], xl[int(j)*w+c:][:4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		out := acc[c:][:4]
		out[0], out[1], out[2], out[3] = a0, a1, a2, a3
	}
	for ; c < w; c++ {
		a := 0.0
		for q, j := range src {
			a += val[q] * xl[int(j)*w+c]
		}
		acc[c] = a
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
func (k *rowKernel) addInto(dst, xl []float64) {
	for t, row := range k.rows {
		dst[row] += k.value(t, xl)
	}
}

// fillInto overwrites dst[t] with slot t's value; dst must have
// len(k.rows) entries (a packet's yVal buffer).
//
//spmv:hotpath
func (k *rowKernel) fillInto(dst, xl []float64) {
	for t := range k.rows {
		dst[t] = k.value(t, xl)
	}
}

// addIntoBlock is the w-wide addInto over column-blocked buffers: each
// slot's w values accumulate in acc (scratch, len >= w) and are then
// added to dst[rows[t]*w : ...]. Going through acc keeps the per-column
// floating-point order identical to value(), not just close.
//
//spmv:hotpath
func (k *rowKernel) addIntoBlock(dst, xl []float64, w int, acc []float64) {
	for t, row := range k.rows {
		k.valueBlock(t, xl, w, acc)
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
func (k *rowKernel) fillIntoBlock(dst, xl []float64, w int) {
	for t := range k.rows {
		k.valueBlock(t, xl, w, dst[t*w:(t+1)*w])
	}
}

// compileRows groups build-time nonzeros by output row into a rowKernel
// with sorted distinct rows, each slot's local nonzeros ahead of its
// external ones. src keeps the build encoding (global index ≥ 0, or
// external slot s as -(s+1)) until localize rewrites it.
//
//spmv:deterministic
func compileRows(nzs []localNZ) rowKernel {
	var k rowKernel
	if len(nzs) == 0 {
		k.ptr = []int32{0}
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
	// ext[t] counts slot t's external nonzeros, then becomes the cursor
	// of its external run; loc is the cursor of its local run.
	k.ptr = make([]int32, len(rows)+1)
	ext := make([]int32, len(rows))
	for _, nz := range nzs {
		t := slot(nz.row)
		k.ptr[t+1]++
		if nz.src < 0 {
			ext[t]++
		}
	}
	loc := make([]int32, len(rows))
	for t := range rows {
		k.ptr[t+1] += k.ptr[t]
		loc[t] = k.ptr[t]
		ext[t] = k.ptr[t+1] - ext[t]
	}
	k.src = make([]int32, len(nzs))
	k.val = make([]float64, len(nzs))
	for _, nz := range nzs {
		t := slot(nz.row)
		cur := &loc[t]
		if nz.src < 0 {
			cur = &ext[t]
		}
		k.src[*cur] = int32(nz.src)
		k.val[*cur] = nz.val
		*cur++
	}
	return k
}

// localizer rewrites the build-encoded src of every kernel of one plan
// to positions in the processor's local vector
//
//	xl = [x[ownIdx[0]], …, x[ownIdx[nOwn-1]] | external slot 0, …, nExt-1]
//
// where ownIdx lists the owned x entries the kernels read, ascending. A
// call gathers the head from the caller's x once and receives external
// values straight into the tail, so every kernel reads one compact
// vector instead of scattered entries of the caller's x. pos is scratch
// over the direction's x index space, shared by every plan one compile
// localizes and all zero between plans.
type localizer struct{ pos []int32 }

func newLocalizer(n int) localizer { return localizer{pos: make([]int32, n)} }

// localize rewrites ks in place and returns their ownIdx.
func (l localizer) localize(ks ...*rowKernel) (ownIdx []int) {
	for _, k := range ks {
		for _, s := range k.src {
			if s >= 0 && l.pos[s] == 0 {
				l.pos[s] = 1
				ownIdx = append(ownIdx, int(s))
			}
		}
	}
	slices.Sort(ownIdx)
	ownIdx = slices.Clone(ownIdx) // drop append's slack: the plan keeps it
	for t, j := range ownIdx {
		l.pos[j] = int32(t)
	}
	nOwn := int32(len(ownIdx))
	for _, k := range ks {
		for q, s := range k.src {
			if s >= 0 {
				k.src[q] = l.pos[s]
			} else {
				k.src[q] = nOwn - (s + 1)
			}
		}
	}
	for _, j := range ownIdx {
		l.pos[j] = 0
	}
	return ownIdx
}

// checkIndexRange rejects a distribution whose index spaces overflow
// the kernels' int32 positions and run bounds.
func checkIndexRange(d *distrib.Distribution) error {
	if a := d.A; max(a.Rows, a.Cols, a.NNZ()) > math.MaxInt32 {
		return fmt.Errorf("spmv: %dx%d matrix with %d nonzeros exceeds the engine's int32 index range", a.Rows, a.Cols, a.NNZ())
	}
	return nil
}

// localVec is one processor's per-call scratch: the local vector xl the
// kernels read and the w-wide accumulator of the generic block kernels.
// Nothing in it outlives a call, so the forward and transpose plans
// share it; each (direction, width) change re-slices it.
type localVec struct {
	xl  []float64
	acc []float64
}

// planIO is what both plan types size per call: the layout of the
// processor's local vector and the payloads of the outgoing packets.
type planIO struct {
	// The local vector every kernel reads holds the owned x entries at
	// ownIdx, then nExt external slots (see localizer).
	ownIdx []int
	nExt   int
	// out lists the plan's outgoing packets; vals backs their payloads.
	out  []*packet
	vals valArena
}

// ready carves the packet payloads for width w and slices the
// processor's local vector for it.
func (io *planIO) ready(loc *localVec, w int) {
	n := 0
	for _, pk := range io.out {
		n += pk.words()
	}
	io.vals.reset(n * w)
	for _, pk := range io.out {
		pk.carve(&io.vals, w)
	}
	loc.xl = growBlock(loc.xl, (len(io.ownIdx)+io.nExt)*w)
	loc.acc = growBlock(loc.acc, w)
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

// fill refreshes the packet's value arrays: the x entries from the
// caller's x, the partials from the proc's local vector xl, under the
// given kernel backend.
//
//spmv:hotpath
func (sp *sendPlan) fill(kid kernelID, x, xl []float64, w int) {
	gatherW(sp.buf.xVal, x, sp.buf.xIdx, w)
	sp.grp.fillIntoK(kid, sp.buf.yVal, xl, w)
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
