package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// testMatrix is a small SPD stencil — valid input for every registry
// method and for CG.
func testMatrix(t *testing.T, nx, ny int) *sparse.CSR {
	t.Helper()
	return gen.Laplace2D(nx, ny, false)
}

func buildEngine(t *testing.T, a *sparse.CSR, name string, k int, seed int64) spmv.Multiplier {
	t.Helper()
	b, err := method.BuildByName(name, a, k, method.Options{Seed: seed})
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	eng, err := spmv.New(b)
	if err != nil {
		t.Fatalf("engine %s: %v", name, err)
	}
	return eng
}

func newTestScheduler(t *testing.T, a *sparse.CSR, opt Options) *scheduler {
	t.Helper()
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols, opt.withDefaults(), EngineKey{}, "", nil, nil)
	t.Cleanup(s.close)
	return s
}

func randVec(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()*4 - 2
	}
	return x
}

// heldFlush is one flush as it reached a gated engine: the batch's
// input vectors in batch order and its direction.
type heldFlush struct {
	xs        [][]float64
	transpose bool
}

// gatedEngine wraps a scheduler's engine so a test can hold the runner
// inside a flush. Every multiply reports itself on entered and then
// blocks until the test lets it through — one flush per step, or every
// flush once the gate is open. Requests submitted while the runner is
// held queue up exactly as they would behind a slow multiply.
type gatedEngine struct {
	spmv.Multiplier
	entered chan heldFlush
	release chan struct{}
	once    sync.Once
}

// gate installs a gated engine on an idle scheduler. Cleanup opens the
// gate so the scheduler can drain and close.
func gate(t *testing.T, s *scheduler) *gatedEngine {
	t.Helper()
	g := &gatedEngine{entered: make(chan heldFlush, 64), release: make(chan struct{})}
	s.mu.Lock()
	g.Multiplier = s.eng
	s.eng = g
	s.mu.Unlock()
	t.Cleanup(g.open)
	return g
}

// step lets exactly one held flush through.
func (g *gatedEngine) step() { g.release <- struct{}{} }

// open lets every held and future flush through.
func (g *gatedEngine) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedEngine) hold(xs [][]float64, transpose bool) {
	g.entered <- heldFlush{xs: xs, transpose: transpose}
	<-g.release
}

func (g *gatedEngine) Multiply(x, y []float64) error {
	g.hold([][]float64{x}, false)
	return g.Multiplier.Multiply(x, y)
}

func (g *gatedEngine) MultiplyTranspose(x, y []float64) error {
	g.hold([][]float64{x}, true)
	return g.Multiplier.MultiplyTranspose(x, y)
}

func (g *gatedEngine) MultiplyMulti(X, Y [][]float64) error {
	g.hold(X, false)
	return g.Multiplier.MultiplyMulti(X, Y)
}

func (g *gatedEngine) MultiplyTransposeMulti(X, Y [][]float64) error {
	g.hold(X, true)
	return g.Multiplier.MultiplyTransposeMulti(X, Y)
}

// holdRunner gates s and parks its runner inside the flush of one plug
// request (the default tenant's zero vector), so everything submitted
// afterwards queues behind a busy engine. The plug completes once the
// gate lets its flush through; cleanup opens the gate and waits for it.
// The plug counts in the scheduler's metrics as one request in one
// batch.
func holdRunner(t *testing.T, s *scheduler) *gatedEngine {
	t.Helper()
	g := gate(t, s)
	plugDone := make(chan error, 1)
	go func() {
		_, err := s.submit(context.Background(), make([]float64, s.cols))
		plugDone <- err
	}()
	if f := <-g.entered; len(f.xs) != 1 {
		t.Fatalf("plug flushed at width %d, want 1", len(f.xs))
	}
	t.Cleanup(func() {
		g.open()
		if err := <-plugDone; err != nil {
			t.Errorf("plug request: %v", err)
		}
	})
	return g
}

// fillQueue holds s's runner and queues one live default-tenant
// request behind it, so a pool with MaxQueue 1 sheds the next
// submission at admission. Cleanup frees the engine and waits for the
// occupant.
func fillQueue(t *testing.T, s *scheduler) {
	t.Helper()
	g := holdRunner(t, s)
	done := make(chan error, 1)
	go func() {
		_, err := s.submit(context.Background(), make([]float64, s.cols))
		done <- err
	}()
	waitDepth(t, s, 1)
	t.Cleanup(func() {
		g.open()
		if err := <-done; err != nil {
			t.Errorf("queued occupant: %v", err)
		}
	})
}

// sameVectors reports whether got holds exactly the slices in want, in
// order (identity, not value equality).
func sameVectors(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if &got[i][0] != &want[i][0] {
			return false
		}
	}
	return true
}

// TestGroupCommitLoneRequestFlushesAlone: a lone request on an idle
// scheduler flushes at once as exactly one width-1 batch — nothing
// waits for companions that are not already queued.
func TestGroupCommitLoneRequestFlushesAlone(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 8})
	g := gate(t, s)
	g.open()
	r := rand.New(rand.NewSource(3))
	x := randVec(r, a.Cols)

	y, err := s.submit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if f := <-g.entered; !sameVectors(f.xs, [][]float64{x}) || f.transpose {
		t.Fatalf("lone request flushed as %d vectors (transpose %v), want itself alone", len(f.xs), f.transpose)
	}
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	for i := range want {
		if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	m := s.metrics()
	if m.Requests != 1 || m.Batches != 1 || m.MeanBatch != 1 {
		t.Fatalf("metrics = %+v, want 1 request in 1 batch", m)
	}
}

// TestGroupCommitCoalescesQueuedRequests: requests queued while a flush
// holds the engine leave together in the next flush, min(N, MaxBatch)
// wide, in stride order across tenants.
func TestGroupCommitCoalescesQueuedRequests(t *testing.T) {
	reg, err := NewTenantRegistry(
		TenantSpec{Name: "a", Key: "ka", Weight: 2},
		TenantSpec{Name: "b", Key: "kb", Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := reg.Lookup("a")
	tb, _ := reg.Lookup("b")
	a := testMatrix(t, 12, 12)
	r := rand.New(rand.NewSource(37))
	vecs := func(n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = randVec(r, a.Cols)
		}
		return xs
	}
	submitAsync := func(s *scheduler, tn *Tenant, xs [][]float64) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := s.submitBatch(context.Background(), tn, xs, false)
			done <- err
		}()
		return done
	}

	t.Run("under MaxBatch", func(t *testing.T) {
		s := newTestScheduler(t, a, Options{MaxBatch: 8, Tenants: reg})
		g := holdRunner(t, s)
		xs := vecs(5)
		done := submitAsync(s, ta, xs)
		waitDepth(t, s, len(xs))
		g.open()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if f := <-g.entered; !sameVectors(f.xs, xs) {
			t.Fatalf("next flush = %d vectors, want the 5 queued requests in FIFO order", len(f.xs))
		}
		if m := s.metrics(); m.Batches != 2 || m.Requests != 6 {
			t.Fatalf("metrics = %+v, want the plug plus one batch of 5", m)
		}
	})

	t.Run("over MaxBatch", func(t *testing.T) {
		s := newTestScheduler(t, a, Options{MaxBatch: 8, Tenants: reg})
		g := holdRunner(t, s)
		xa, xb := vecs(8), vecs(8)
		doneA := submitAsync(s, ta, xa)
		waitDepth(t, s, len(xa))
		doneB := submitAsync(s, tb, xb)
		waitDepth(t, s, len(xa)+len(xb))
		g.open()
		if err := <-doneA; err != nil {
			t.Fatal(err)
		}
		if err := <-doneB; err != nil {
			t.Fatal(err)
		}
		// Weight 2:1 from equal passes: a b a a b a a b.
		want := [][]float64{xa[0], xb[0], xa[1], xa[2], xb[1], xa[3], xa[4], xb[2]}
		if f := <-g.entered; !sameVectors(f.xs, want) {
			t.Fatalf("next flush = %d vectors, want the 8-wide stride order a b a a b a a b", len(f.xs))
		}
		if f := <-g.entered; len(f.xs) != 8 {
			t.Fatalf("remainder flushed at width %d, want 8", len(f.xs))
		}
		if m := s.metrics(); m.Batches != 3 || m.Requests != 17 {
			t.Fatalf("metrics = %+v, want the plug plus two batches of 8", m)
		}
	})
}

// TestFlushOnExactMaxBatch: maxBatch requests queued behind a busy
// engine flush as exactly one batch the moment the engine frees up.
func TestFlushOnExactMaxBatch(t *testing.T) {
	a := testMatrix(t, 12, 12)
	const batch = 4
	s := newTestScheduler(t, a, Options{MaxBatch: batch})
	g := holdRunner(t, s)
	r := rand.New(rand.NewSource(5))

	var wg sync.WaitGroup
	errs := make([]error, batch)
	for i := 0; i < batch; i++ {
		x := randVec(r, a.Cols)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.submit(context.Background(), x)
		}(i)
	}
	waitDepth(t, s, batch)
	t0 := time.Now()
	g.open()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("maxBatch-full batch did not flush once the engine freed up")
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("full batch took %v", elapsed)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if f := <-g.entered; len(f.xs) != batch {
		t.Fatalf("queued requests flushed at width %d, want one batch of %d", len(f.xs), batch)
	}
	m := s.metrics()
	if m.Requests != batch+1 || m.Batches != 2 || m.QueueDepth != 0 {
		t.Fatalf("metrics = %+v, want the plug plus one batch of %d", m, batch)
	}
}

// waitDepth polls until the scheduler's queue reaches depth n.
func waitDepth(t *testing.T, s *scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.metrics().QueueDepth >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("queue never reached depth %d", n)
}

// TestContextCancelledMidBatch: a request cancelled while queued returns
// ctx.Err immediately, leaves the queue (it must not widen the batch or
// hold its caller's x slice), and does not disturb its batchmates'
// results.
func TestContextCancelledMidBatch(t *testing.T) {
	a := testMatrix(t, 12, 12)
	const batch = 4
	s := newTestScheduler(t, a, Options{MaxBatch: batch})
	g := holdRunner(t, s)
	r := rand.New(rand.NewSource(7))

	ctx, cancel := context.WithCancel(context.Background())
	cancelledErr := make(chan error, 1)
	xs := make([][]float64, 5)
	for i := range xs {
		xs[i] = randVec(r, a.Cols)
	}
	go func() {
		_, err := s.submit(ctx, xs[0])
		cancelledErr <- err
	}()
	waitDepth(t, s, 1)

	type out struct {
		y   []float64
		err error
	}
	outs := make([]chan out, 4)
	sub := func(i int) {
		outs[i] = make(chan out, 1)
		go func() {
			y, err := s.submit(context.Background(), xs[1+i])
			outs[i] <- out{y, err}
		}()
	}
	sub(0)
	sub(1)
	waitDepth(t, s, 3) // A (cancellable) + two batchmates, behind the plug

	// Cancel the first request: it leaves the queue immediately, so it
	// never widens the batch and the batchmates keep waiting.
	cancel()
	if err := <-cancelledErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	if d := s.metrics().QueueDepth; d != 2 {
		t.Fatalf("queue depth after cancel = %d, want 2", d)
	}

	// Two fresh requests fill the batch; freeing the engine flushes it.
	sub(2)
	sub(3)
	waitDepth(t, s, 4)
	g.open()

	want := make([]float64, a.Rows)
	check := func(x, y []float64) {
		t.Helper()
		a.MulVec(x, want)
		for i := range want {
			if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("batchmate result corrupted at %d: %v want %v", i, y[i], want[i])
			}
		}
	}
	for i := 0; i < 4; i++ {
		o := <-outs[i]
		if o.err != nil {
			t.Fatalf("batchmate %d: %v", i, o.err)
		}
		check(xs[1+i], o.y)
	}

	m := s.metrics()
	if m.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", m.Cancelled)
	}
	if f := <-g.entered; len(f.xs) != 4 {
		t.Fatalf("batchmates flushed at width %d, want 4", len(f.xs))
	}
	if m.Requests != 4+1 || m.Batches != 1+1 {
		t.Fatalf("metrics = %+v, want the plug plus one batch of 4 live requests", m)
	}
}

// TestCancelStormNoRace hammers the scheduler with short-deadline
// submissions and writes each caller's x slice the moment submit
// returns — the pattern /v1/solve's CG produces when a client
// disconnects mid-iteration. Run under -race this pins the contract
// that submit never returns while a flush still reads x.
func TestCancelStormNoRace(t *testing.T) {
	a := testMatrix(t, 20, 20)
	s := newTestScheduler(t, a, Options{MaxBatch: 4})

	const clients = 16
	var wg sync.WaitGroup
	deadline := time.Now().Add(150 * time.Millisecond)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(c)))
			x := randVec(r, a.Cols)
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(r.Intn(300))*time.Microsecond)
				_, err := s.submit(ctx, x)
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("client %d: %v", c, err)
					return
				}
				// Reuse x immediately, like an iterative solver would.
				x[r.Intn(len(x))] = r.Float64()
			}
		}(c)
	}
	wg.Wait()
}

// TestSubmitOverload: the bounded queue rejects the request past
// MaxQueue with a typed overload error, without blocking.
func TestSubmitOverload(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 64, MaxQueue: 2})
	holdRunner(t, s)
	r := rand.New(rand.NewSource(11))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go s.submit(ctx, randVec(r, a.Cols)) //nolint:errcheck // unblocked by cancel
	}
	waitDepth(t, s, 2)

	_, err := s.submit(context.Background(), randVec(r, a.Cols))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Limit != 2 {
		t.Fatalf("err = %#v, want *OverloadError with Limit 2", err)
	}
	if m := s.metrics(); m.Overloads != 1 {
		t.Fatalf("overloads = %d, want 1", m.Overloads)
	}
}

// TestSubmitAfterClose: submissions after close fail with ErrClosed and
// close drains queued work first.
func TestSubmitAfterClose(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols,
		Options{}.withDefaults(), EngineKey{}, "", nil, nil)
	r := rand.New(rand.NewSource(13))
	x := randVec(r, a.Cols)
	if _, err := s.submit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	s.close()
	s.close() // idempotent
	if _, err := s.submit(context.Background(), x); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSubmitDimensionError: admission control rejects wrong-sized
// vectors before they reach the engine.
func TestSubmitDimensionError(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{})
	_, err := s.submit(context.Background(), make([]float64, a.Cols+1))
	var de *DimensionError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DimensionError", err)
	}
}

// TestCoalescedBitwiseEqualsSolo is the correctness half of the serving
// acceptance criterion: results demultiplexed from coalesced batches
// must be bit-identical to solo engine Multiply calls, across engine
// schedules (fused s2D, two-phase 2D, routed s2D-b, medium-grain).
func TestCoalescedBitwiseEqualsSolo(t *testing.T) {
	a := testMatrix(t, 16, 14)
	const k, seed = 4, 1
	for _, name := range []string{"1d", "2d", "2d-b", "s2d", "s2d-b", "s2d-mg"} {
		t.Run(name, func(t *testing.T) {
			solo := buildEngine(t, a, name, k, seed)
			defer solo.Close()
			s := newScheduler(buildEngine(t, a, name, k, seed), a.Rows, a.Cols,
				Options{MaxBatch: 8}.withDefaults(), EngineKey{}, "", nil, nil)
			defer s.close()

			r := rand.New(rand.NewSource(17))
			const n = 24
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = randVec(r, a.Cols)
			}
			got := make([][]float64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = s.submit(context.Background(), xs[i])
				}(i)
			}
			wg.Wait()

			want := make([]float64, a.Rows)
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				solo.Multiply(xs[i], want)
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("request %d: y[%d] = %v, want %v (not bit-identical)",
							i, j, got[i][j], want[j])
					}
				}
			}
			if m := s.metrics(); m.Requests != n {
				t.Fatalf("requests = %d, want %d", m.Requests, n)
			}
		})
	}
}

// TestCoalescingThroughputUnderLoad is the performance half of the
// acceptance criterion: with >= 32 in-flight clients and maxBatch=8 the
// coalescing scheduler must achieve a mean batch width above 2 and more
// requests/sec than a no-batching baseline that serializes solo
// Multiply calls on an identical engine. The two sides run in
// alternating rounds and the medians are compared, so a burst of load
// from a neighbouring process lands on both sides instead of deciding
// the verdict from one sample each.
func TestCoalescingThroughputUnderLoad(t *testing.T) {
	a := testMatrix(t, 50, 50) // 2500 rows, ~12k nnz
	const (
		clients  = 32
		rounds   = 5
		duration = 200 * time.Millisecond
	)
	r := rand.New(rand.NewSource(19))
	xs := make([][]float64, clients)
	for i := range xs {
		xs[i] = randVec(r, a.Cols)
	}

	// Baseline: same engine build, solo Multiply behind a mutex (the only
	// safe no-batching way to share an engine across goroutines).
	solo := buildEngine(t, a, "s2d", 4, 1)
	defer solo.Close()
	var soloMu sync.Mutex
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols,
		Options{MaxBatch: 8}.withDefaults(), EngineKey{}, "", nil, nil)
	defer s.close()

	soloOps := make([]int, rounds)
	coalescedOps := make([]int, rounds)
	for i := range rounds {
		soloOps[i] = loadLoop(clients, duration, func(c int) {
			y := make([]float64, a.Rows)
			soloMu.Lock()
			solo.Multiply(xs[c], y)
			soloMu.Unlock()
		})
		coalescedOps[i] = loadLoop(clients, duration, func(c int) {
			if _, err := s.submit(context.Background(), xs[c]); err != nil {
				t.Error(err)
			}
		})
	}

	m := s.metrics()
	slices.Sort(soloOps)
	slices.Sort(coalescedOps)
	soloMed, coalescedMed := soloOps[rounds/2], coalescedOps[rounds/2]
	t.Logf("per round: solo %v ops, coalesced %v ops (sorted); mean batch %.2f over %d batches",
		soloOps, coalescedOps, m.MeanBatch, m.Batches)
	if m.MeanBatch <= 2 {
		t.Errorf("mean batch width = %.2f, want > 2", m.MeanBatch)
	}
	if coalescedMed <= soloMed {
		t.Errorf("coalesced median throughput %d ops <= solo median %d ops", coalescedMed, soloMed)
	}
}

// loadLoop runs clients goroutines hammering op until the duration
// elapses and returns total completed operations.
func loadLoop(clients int, d time.Duration, op func(c int)) int {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
	)
	deadline := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 0
			for time.Now().Before(deadline) {
				op(c)
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total
}

// TestSchedulerManyBatches drives enough concurrent traffic through a
// small-batch scheduler that the queue outlasts many flushes (requests
// left over after a full flush go out with the next one).
func TestSchedulerManyBatches(t *testing.T) {
	a := testMatrix(t, 10, 10)
	s := newTestScheduler(t, a, Options{MaxBatch: 2})
	r := rand.New(rand.NewSource(23))

	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		x := randVec(r, a.Cols)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.submit(context.Background(), x); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := s.metrics()
	if m.Requests != n {
		t.Fatalf("requests = %d, want %d", m.Requests, n)
	}
	if m.Batches == 0 || m.Batches > n {
		t.Fatalf("batches = %d, want in [%d, %d]", m.Batches, (n+1)/2, n)
	}
	if fmt.Sprintf("%.3f", m.MeanBatch) == "0.000" {
		t.Fatal("mean batch width unrecorded")
	}
}

// TestCoalescedTransposeBitwiseEqualsSolo mixes concurrent forward and
// transpose submissions on one scheduler and checks both directions
// against solo engine calls bit for bit — flushes must stay homogeneous
// in direction, whatever interleaving the queue sees.
func TestCoalescedTransposeBitwiseEqualsSolo(t *testing.T) {
	a := testMatrix(t, 16, 14)
	const k, seed = 4, 1
	for _, name := range []string{"s2d", "2d", "s2d-b"} {
		t.Run(name, func(t *testing.T) {
			solo := buildEngine(t, a, name, k, seed)
			defer solo.Close()
			s := newScheduler(buildEngine(t, a, name, k, seed), a.Rows, a.Cols,
				Options{MaxBatch: 8}.withDefaults(), EngineKey{}, "", nil, nil)
			defer s.close()

			r := rand.New(rand.NewSource(29))
			const n = 24
			xs := make([][]float64, n)
			for i := range xs {
				if i%2 == 0 {
					xs[i] = randVec(r, a.Cols) // forward
				} else {
					xs[i] = randVec(r, a.Rows) // transpose
				}
			}
			got := make([][]float64, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i%2 == 0 {
						got[i], errs[i] = s.submit(context.Background(), xs[i])
					} else {
						got[i], errs[i] = s.submitT(context.Background(), xs[i])
					}
				}(i)
			}
			wg.Wait()

			wantF := make([]float64, a.Rows)
			wantT := make([]float64, a.Cols)
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				want := wantF
				if i%2 == 0 {
					solo.Multiply(xs[i], wantF)
				} else {
					solo.MultiplyTranspose(xs[i], wantT)
					want = wantT
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("request %d: y[%d] = %v, want %v (not bit-identical)",
							i, j, got[i][j], want[j])
					}
				}
			}
			if m := s.metrics(); m.Requests != n {
				t.Fatalf("requests = %d, want %d", m.Requests, n)
			}
		})
	}
}

// TestSubmitTransposeDimensionError: transpose admission control checks
// against the row dimension, not the column one.
func TestSubmitTransposeDimensionError(t *testing.T) {
	a := testMatrix(t, 12, 10) // 120 rows == 120 cols only if square; use rect below
	s := newTestScheduler(t, a, Options{})
	if _, err := s.submitT(context.Background(), make([]float64, a.Rows+1)); err == nil {
		t.Fatal("oversized transpose x accepted")
	}
	if _, err := s.submitT(context.Background(), make([]float64, a.Rows)); err != nil {
		t.Fatalf("correctly sized transpose x rejected: %v", err)
	}
}

// TestGroupCommitMixedDirectionHeadRunFirst: flushes stay homogeneous
// in direction. A lone forward request at the head of a queue of
// transpose requests flushes by itself the moment the engine frees up,
// and the transpose run flushes next.
func TestGroupCommitMixedDirectionHeadRunFirst(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 2})
	g := holdRunner(t, s)
	r := rand.New(rand.NewSource(31))

	fx := randVec(r, a.Cols)
	tx := [][]float64{randVec(r, a.Rows), randVec(r, a.Rows)}
	results := make(chan error, 3)
	go func() {
		_, err := s.submit(context.Background(), fx)
		results <- err
	}()
	waitDepth(t, s, 1)
	go func() {
		_, err := s.submitBatch(context.Background(), nil, tx, true)
		results <- err
	}()
	waitDepth(t, s, 3)

	g.open()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request: %v", err)
		}
	}
	if f := <-g.entered; f.transpose || !sameVectors(f.xs, [][]float64{fx}) {
		t.Fatalf("first flush = %d vectors (transpose %v), want the lone forward head", len(f.xs), f.transpose)
	}
	if f := <-g.entered; !f.transpose || !sameVectors(f.xs, tx) {
		t.Fatalf("second flush = %d vectors (transpose %v), want the transpose run", len(f.xs), f.transpose)
	}
	if m := s.metrics(); m.Requests != 3+1 || m.Batches != 2+1 || m.QueueDepth != 0 {
		t.Fatalf("metrics = %+v, want the plug plus flushes of 1 and 2", m)
	}
}
