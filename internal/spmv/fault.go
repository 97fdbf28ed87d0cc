package spmv

// This file is the engine-side fault-containment surface. A panic inside
// a worker goroutine used to kill the whole process; now the worker
// recovers it, records it, floods its peers with empty release packets so
// every in-flight gather completes and the dispatch barrier closes, and
// the dispatch returns a typed *EngineFaultError. The engine is poisoned
// from that point on — its compiled buffers and inboxes may hold partial
// state — so every later dispatch fails fast with the same fault instead
// of computing garbage. Sharing layers (internal/serve's pool) quarantine
// poisoned engines and rebuild them; the worker goroutines themselves
// survive the panic parked, so Close still collects them cleanly.

import (
	"fmt"
	"strings"
)

// ClosedError reports a multiply dispatched after Close. It replaces the
// old diagnosable panic so library callers that race a refcounted Close
// get an error they can branch on instead of a crash.
type ClosedError struct {
	// Op names the call: "Multiply", "MultiplyBlock",
	// "MultiplyTranspose" or "MultiplyTransposeBlock" (width-1 block
	// and single-vector Multi calls report the single-vector name).
	Op string
}

func (e *ClosedError) Error() string {
	return fmt.Sprintf("spmv: %s on closed engine", e.Op)
}

// WorkerPanic records one contained panic inside a worker goroutine.
type WorkerPanic struct {
	Worker int    // processor id; -1 for panics outside any worker
	Value  string // the recovered value, stringified
}

// EngineFaultError reports that one or more worker goroutines panicked
// during a dispatch. Only the in-flight multiply failed — the process
// and the other workers survive — but the engine is poisoned: its packet
// buffers may hold partial state, so every subsequent dispatch returns
// the same fault. The only recovery is to Close the engine and build a
// fresh one.
type EngineFaultError struct {
	Op     string
	Panics []WorkerPanic
}

func (e *EngineFaultError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spmv: engine fault during %s (engine poisoned):", e.Op)
	for _, p := range e.Panics {
		fmt.Fprintf(&b, " worker %d panicked: %s;", p.Worker, p.Value)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// WorkerFaultHooker is implemented by engines that accept an injectable
// per-worker hook, run at the top of every worker turn. A panic inside
// the hook is contained exactly like a plan panic — the serving layer's
// fault-injection harness uses this to force worker crashes at chosen
// points. A nil hook clears it.
type WorkerFaultHooker interface {
	SetWorkerFaultHook(func(worker int))
}

// SetWorkerFaultHook installs h on the engine's worker pool.
func (b *base) SetWorkerFaultHook(h func(worker int)) { b.pool.setHook(h) }

// releasePeers floods every other processor's inboxes with one empty
// packet from worker i. A gather still waiting on the panicked worker's
// sends accepts the release packet in its place (sender-keyed, see
// recvPlan.gather) and reads its empty payload harmlessly; gathers that
// never expected worker i in that phase drop the packet instead of
// completing early over stale buffers. The inbox capacity (2K per
// phase) absorbs the worst case of every worker sending one real and
// one release packet per phase, so these sends never block. Spurious
// packets left in buffers are harmless: the engine is poisoned and will
// never dispatch again.
func (p *workerPool) releasePeers(i int) {
	for j, phases := range p.inbox {
		if j == i {
			continue
		}
		for _, ch := range phases {
			ch <- packet{from: i}
		}
	}
}
