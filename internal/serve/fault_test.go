package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/faultinject"
)

// faultPool builds a pool around an armed injector with a fast rebuild
// cooldown, holding the usual 14×14 Laplacian as "lap".
func faultPool(t *testing.T, inj *faultinject.Injector) *Pool {
	t.Helper()
	p := NewPool(Options{
		Seed:           1,
		Injector:       inj,
		PayloadChecks:  true,
		RebuildBackoff: 20 * time.Millisecond,
	})
	t.Cleanup(p.Close)
	if err := p.AddMatrix("lap", testMatrix(t, 14, 14)); err != nil {
		t.Fatal(err)
	}
	return p
}

// acquireEventually retries Acquire through breaker cooldowns.
func acquireEventually(t *testing.T, p *Pool, method string, k int) *Handle {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := p.Acquire("lap", method, k)
		if err == nil {
			return h
		}
		var qe *QuarantinedError
		if !errors.As(err, &qe) || !time.Now().Before(deadline) {
			t.Fatalf("Acquire: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerPanicQuarantineAndRecovery walks the whole containment
// pipeline: an injected worker panic fails only the in-flight batch
// with a typed error, the engine is quarantined (evicted + breaker
// open), and after the cooldown a rebuilt engine serves correct
// results again.
func TestWorkerPanicQuarantineAndRecovery(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: "worker.panic", Nth: 1, Count: 1})
	p := faultPool(t, inj)
	ctx := context.Background()

	h, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, h.Cols())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	_, err = h.Multiply(ctx, x)
	var fe *EngineFaultError
	if !errors.As(err, &fe) {
		t.Fatalf("Multiply under injected panic = %v, want *EngineFaultError", err)
	}
	if fe.Key.Matrix != "lap" {
		t.Fatalf("fault key = %+v, want matrix lap", fe.Key)
	}
	// The batch is accounted as faulted on the engine's own collector.
	if m := h.Metrics(); m.FaultedBatches != 1 || m.Failures == 0 {
		t.Fatalf("metrics after fault = %+v, want 1 faulted batch and counted failures", m)
	}
	// Fast-fail while poisoned: no new flush is attempted.
	if _, err := h.Multiply(ctx, x); !errors.Is(err, ErrEngineFault) {
		t.Fatalf("second Multiply = %v, want ErrEngineFault fast-fail", err)
	}
	h.Release()

	// Quarantined: entry evicted, breaker open, immediate re-acquire sheds
	// with a positive retry hint.
	pm := p.MetricsSnapshot()
	if pm.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", pm.Quarantines)
	}
	_, err = p.Acquire("lap", "s2d", 4)
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("Acquire during cooldown = %v, want *QuarantinedError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", qe.RetryAfter)
	}
	if !errors.Is(err, ErrEngineFault) {
		t.Fatal("QuarantinedError must match ErrEngineFault for callers testing the class")
	}

	// Recovery: the injector is spent, so the post-cooldown rebuild
	// succeeds and the fresh engine computes the right product.
	h2 := acquireEventually(t, p, "s2d", 4)
	defer h2.Release()
	y, err := h2.Multiply(ctx, x)
	if err != nil {
		t.Fatalf("Multiply after rebuild: %v", err)
	}
	a := testMatrix(t, 14, 14)
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	for i := range want {
		if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("y[%d] = %v, want %v after rebuild", i, y[i], want[i])
		}
	}
}

// TestBuildFailureShedsRetryableAndBacksOff: failed (re)builds are
// transient 503-class sheds, and consecutive failures double the
// breaker cooldown rather than hammering the build path.
func TestBuildFailureShedsRetryableAndBacksOff(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: "build.fail", Nth: 1, Count: 2})
	p := faultPool(t, inj)

	_, err := p.Acquire("lap", "s2d", 4)
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("Acquire with failing build = %v, want *QuarantinedError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", qe.RetryAfter)
	}
	// While the cooldown runs, acquires shed without attempting a build.
	builds := p.MetricsSnapshot().Builds
	if _, err := p.Acquire("lap", "s2d", 4); !errors.As(err, &qe) {
		t.Fatalf("Acquire during cooldown = %v, want *QuarantinedError", err)
	}
	if got := p.MetricsSnapshot().Builds; got != builds {
		t.Fatalf("builds went %d → %d during cooldown; breaker must gate rebuilds", builds, got)
	}

	// The half-open probe build fails too (rule count 2), then the third
	// attempt succeeds; the breaker must have tripped exactly twice.
	h := acquireEventually(t, p, "s2d", 4)
	h.Release()
	if fired := inj.Fired("build.fail"); fired != 2 {
		t.Fatalf("build.fail fired %d times, want 2", fired)
	}
	pm := p.MetricsSnapshot()
	if len(pm.Breakers) != 1 {
		t.Fatalf("breaker rows = %+v, want exactly one", pm.Breakers)
	}
	br := pm.Breakers[0]
	if br.Trips != 2 || br.State != "closed" {
		t.Fatalf("breaker = %+v, want 2 trips and closed after recovery", br)
	}
}

// TestNaNPayloadQuarantines: corrupted flush output (injected NaN) is
// detected by PayloadChecks and treated exactly like a panic — the
// batch fails typed, the scheduler latches, onFault fires once.
func TestNaNPayloadQuarantines(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: "flush.nan", Nth: 1, Count: 1})
	a := testMatrix(t, 12, 12)
	opt := Options{MaxBatch: 4, Injector: inj, PayloadChecks: true}.withDefaults()
	faults := 0
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols, opt,
		EngineKey{Matrix: "lap", Method: "s2d", K: 4}, "", nil, func(error) { faults++ })
	t.Cleanup(s.close)

	x := make([]float64, a.Cols)
	_, err := s.submit(context.Background(), x)
	var fe *EngineFaultError
	if !errors.As(err, &fe) {
		t.Fatalf("submit with NaN-corrupted flush = %v, want *EngineFaultError", err)
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("fault should name the corruption, got %q", err)
	}
	if m := s.metrics(); m.FaultedBatches != 1 {
		t.Fatalf("FaultedBatches = %d, want 1", m.FaultedBatches)
	}
	// Fast-fail path: no second flush happens, onFault stays at one.
	if _, err := s.submit(context.Background(), x); !errors.As(err, &fe) {
		t.Fatalf("poisoned submit = %v, want *EngineFaultError", err)
	}
	if faults != 1 {
		t.Fatalf("onFault fired %d times, want exactly once", faults)
	}
}

// TestFlushPanicQuarantines: a panic in the scheduler's own flush path
// (not inside the engine) is contained the same way.
func TestFlushPanicQuarantines(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: "flush.panic", Nth: 1, Count: 1})
	a := testMatrix(t, 12, 12)
	opt := Options{MaxBatch: 4, Injector: inj}.withDefaults()
	s := newScheduler(buildEngine(t, a, "s2d", 4, 1), a.Rows, a.Cols, opt, EngineKey{}, "", nil, nil)
	t.Cleanup(s.close)

	_, err := s.submit(context.Background(), make([]float64, a.Cols))
	var fe *EngineFaultError
	if !errors.As(err, &fe) {
		t.Fatalf("submit under flush panic = %v, want *EngineFaultError", err)
	}
	if m := s.metrics(); m.FaultedBatches != 1 {
		t.Fatalf("FaultedBatches = %d, want 1", m.FaultedBatches)
	}
}

// TestQueueDrainsOnClose: close() completes every queued request and
// leaves the queue empty — the scheduler half of graceful drain.
func TestQueueDrainsOnClose(t *testing.T) {
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 4})
	g := holdRunner(t, s)

	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := s.submit(context.Background(), make([]float64, a.Cols))
			errs <- err
		}()
	}
	// Let the submissions queue behind the held flush, then close: the
	// drain must flush them, not abandon them.
	waitDepth(t, s, n)
	closed := make(chan struct{})
	go func() { s.close(); close(closed) }()
	for {
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if closing {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	g.open()
	<-closed
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued request failed during drain: %v", err)
		}
	}
	m := s.metrics()
	if m.Requests != n+1 || m.QueueDepth != 0 { // +1: the plug
		t.Fatalf("after drain: %+v, want %d served and empty queue", m, n)
	}
}

// TestServerDrainEndpoints: /healthz stays 200 for the process's life;
// /readyz flips to 503 while draining; in-flight-style traffic is still
// served during the drain window.
func TestServerDrainEndpoints(t *testing.T) {
	p := newTestPool(t, Options{})
	srv := NewServer(p)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", got)
	}

	srv.SetDraining(true)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (liveness is not readiness)", got)
	}
	// Work already routed here must still be served during the drain.
	body, _ := json.Marshal(multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap", Method: "s2d", K: 4},
		X:             make([]float64, 196),
	})
	resp, err := hs.Client().Post(hs.URL+"/v1/multiply", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply while draining = %d, want 200", resp.StatusCode)
	}

	srv.SetDraining(false)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after drain cleared = %d, want 200", got)
	}
}

// TestUploadBodyLimit: /v1/matrices bodies over MaxUploadBytes are cut
// off with 413, and a legitimate upload under the limit still works.
func TestUploadBodyLimit(t *testing.T) {
	p := newTestPool(t, Options{})
	srv := NewServer(p)
	srv.MaxUploadBytes = 1024
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// A well-formed stream that simply keeps going past the limit: the
	// cutoff must surface as 413, not as a 400 parse error.
	big := strings.NewReader("%%MatrixMarket matrix coordinate real general\n" +
		strings.Repeat("% padding\n", 200)) // ~2 KiB
	resp, err := hs.Client().Post(hs.URL+"/v1/matrices?name=big", "text/plain", big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", resp.StatusCode)
	}
}

// TestServerDeadline: a queued request whose deadline_ms expires while
// an (injected) slow flush holds the runner is rejected with 504 and
// counted as cancelled.
func TestServerDeadline(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: "flush.slow", Nth: 1, Count: 1})
	p := NewPool(Options{
		Seed:       1,
		Injector:   inj,
		FlushDelay: 300 * time.Millisecond,
		MaxBatch:   1, // the slow flush must not coalesce the probe request
	})
	t.Cleanup(p.Close)
	if err := p.AddMatrix("lap", testMatrix(t, 14, 14)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	post := func(deadlineMs int, status chan<- int) {
		body, _ := json.Marshal(multiplyRequest{
			engineRequest: engineRequest{Matrix: "lap", Method: "s2d", K: 4},
			X:             make([]float64, 196),
			DeadlineMs:    deadlineMs,
		})
		resp, err := hs.Client().Post(hs.URL+"/v1/multiply", "application/json", strings.NewReader(string(body)))
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}

	// First request trips the 300ms slow flush; the second queues behind
	// it with a 50ms deadline and must come back 504 long before the
	// runner frees up.
	slow := make(chan int, 1)
	go post(0, slow)
	time.Sleep(30 * time.Millisecond) // let the slow flush claim request 1
	fast := make(chan int, 1)
	go post(50, fast)

	if got := <-fast; got != http.StatusGatewayTimeout {
		t.Fatalf("deadline-expired request = HTTP %d, want 504", got)
	}
	if got := <-slow; got != http.StatusOK {
		t.Fatalf("slow request = HTTP %d, want 200", got)
	}
}
