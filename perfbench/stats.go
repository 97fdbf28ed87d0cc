package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rateWindows is how many equal windows the timed phase is cut into.
const rateWindows = 10

// opLog records each completed op's latency (seconds) and completion
// instant.
type opLog struct {
	lat  []float64
	done []time.Time
}

func newOpLog(capacity int) *opLog {
	return &opLog{lat: make([]float64, 0, capacity), done: make([]time.Time, 0, capacity)}
}

func (l *opLog) add(start, end time.Time) {
	l.lat = append(l.lat, end.Sub(start).Seconds())
	l.done = append(l.done, end)
}

func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.done = append(l.done, o.done...)
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeMedian runs f reps times and returns the median duration in µs.
func timeMedian(reps int, f func()) float64 {
	us := make([]float64, reps)
	for i := range us {
		t0 := time.Now()
		f()
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// liveHeap returns the bytes of live heap objects (HeapAlloc) after two
// full collections: the second empties the sync.Pool victim caches, which
// hold encoder buffers of a few hundred KiB. HeapInuse would count whole
// spans, free slots included, and read up to 1.5 MiB apart on identical
// serve set-ups.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// windowClock cuts a timed phase into rateWindows equal windows and
// samples, at each window boundary, the share of CPU time the host stole
// from this machine (the steal column of /proc/stat).
type windowClock struct {
	start time.Time
	win   time.Duration
	steal []float64 // per window; all 0 where /proc/stat is unavailable
	done  chan struct{}
}

// startWindows starts the clock for a phase of length d; stop must be
// called once the phase ends.
func startWindows(d time.Duration) *windowClock {
	c := &windowClock{start: time.Now(), win: d / rateWindows, steal: make([]float64, rateWindows), done: make(chan struct{})}
	s0, t0 := cpuSteal()
	go func() {
		defer close(c.done)
		for i := range c.steal {
			time.Sleep(time.Until(c.start.Add(time.Duration(i+1) * c.win)))
			s1, t1 := cpuSteal()
			if t1 > t0 {
				c.steal[i] = float64(s1-s0) / float64(t1-t0)
			}
			s0, t0 = s1, t1
		}
	}()
	return c
}

// stop waits for the last window's sample.
func (c *windowClock) stop() { <-c.done }

// cpuSteal returns the cumulative steal and total CPU ticks.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// allocsPerOp returns the mean heap allocations of f over reps calls.
func allocsPerOp(reps int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}
