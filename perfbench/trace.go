package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark around a call into a
// module. Op ties the spans of one operation together; Parent is the
// span that caused it (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootName is the name of every operation's root span; its self time is
// the part of the operation no layer span covers.
const rootName = "op"

// tracer keeps spans in memory; the run writes them out at exit. A nil
// *tracer records nothing, so untraced runs share the traced code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns nanoseconds since the tracer's epoch (0 when nil).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(ts.Sub(t.epoch))
}

// id reserves a span ID, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved (or fresh, when id is 0)
// ID and returns the ID.
func (t *tracer) add(id, parent, op int64, name string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// selfTimes returns, per span name, the summed self time (the span's
// duration minus the part of its interval its children cover) and the
// number of spans, plus the number of operation roots. inOps selects the
// spans of timed operations (Op != 0) or those of set-up (Op == 0).
func (t *tracer) selfTimes(inOps bool) (self map[string]time.Duration, count map[string]int, ops int) {
	self, count = make(map[string]time.Duration), make(map[string]int)
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if (s.Op != 0) != inOps {
			continue
		}
		if s.Name == rootName {
			ops++
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		count[s.Name]++
	}
	return self, count, ops
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// selfPerOp returns each layer's mean self time per operation in µs.
// The values sum to the mean operation time.
func (t *tracer) selfPerOp() map[string]float64 {
	self, _, ops := t.selfTimes(true)
	out := make(map[string]float64, len(self))
	if ops == 0 {
		return out
	}
	for name, d := range self {
		out[name] = float64(d) / 1e3 / float64(ops)
	}
	return out
}

// opMean returns the mean root-span duration in µs.
func (t *tracer) opMean() float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == rootName && s.Op != 0 {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / 1e3 / float64(n)
}

// printSelf writes the per-layer self-time table of the operations'
// blocking path (mean µs per operation and share of the operation), then
// the set-up spans' self times.
func (t *tracer) printSelf(w io.Writer) {
	setup, setupCount, _ := t.selfTimes(false)
	setupNames := make([]string, 0, len(setup))
	for n := range setup {
		setupNames = append(setupNames, n)
	}
	sort.Strings(setupNames)
	fmt.Fprintln(w, "set-up self time:")
	for _, n := range setupNames {
		fmt.Fprintf(w, "  setup %-47s %12.4f s  spans=%d\n", n, setup[n].Seconds(), setupCount[n])
	}
	self, count, ops := t.selfTimes(true)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	opUs := t.opMean()
	fmt.Fprintf(w, "self time per op (%d ops, mean op %.1f us, %d spans):\n", ops, opUs, len(t.spans))
	var sum float64
	for _, n := range names {
		per := float64(self[n]) / 1e3 / float64(max(ops, 1))
		label := n
		if n == rootName {
			label = "remainder (op self: not inside any layer span)"
		}
		sum += per
		share := 0.0
		if opUs > 0 {
			share = per / opUs * 100
		}
		fmt.Fprintf(w, "  self %-48s %12.2f us/op %6.1f%%  spans=%d\n", label, per, share, count[n])
	}
	fmt.Fprintf(w, "  self %-48s %12.2f us/op (mean op %.2f us)\n", "sum", sum, opUs)
}
