package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/spmv"
	"repro/internal/wire"
)

// Serve workload parameters (see WORKLOADS.md).
const (
	// serveRows is the spmvserve selftest matrix: spmvbench's powerlaw
	// generator at scale 0.004 (320000 × 0.004 rows).
	serveRows    = 1280
	serveMatrix  = "powerlaw"
	serveMethod  = "s2D"
	serveK       = 4
	serveClients = 2
	// serveInputs is how many distinct pre-encoded requests each client
	// cycles through.
	serveInputs = 16
	serveSetups = 5
	jsonNRHS    = 8
	// ladderReps is how many sequential calls each serve ladder rung
	// times.
	ladderReps = 101
	opHeader   = "X-Perfbench-Op"
)

func servePowerLaw(seed int64) *sparse.CSR {
	n := serveRows
	return gen.PowerLaw(gen.PowerLawConfig{
		Rows: n, Cols: n, NNZ: 10 * n, Beta: 0.5,
		DenseRows: 2, DenseMax: n / 16, Symmetric: true, Locality: 0.9,
	}, seed)
}

// serveReq is one pre-encoded request and the response the oracle
// expects: for binary the exact response frame, for JSON the exact bytes
// of the response up to and including the method field.
type serveReq struct {
	body      []byte
	want      []byte
	exact     bool // want is the whole response, not a prefix
	xs        [][]float64
	transpose bool
}

type jsonMultiply struct {
	Matrix    string      `json:"matrix"`
	Method    string      `json:"method"`
	K         int         `json:"k"`
	Xs        [][]float64 `json:"xs"`
	Transpose bool        `json:"transpose,omitempty"`
}

// serveRequests generates every client's requests from the seed and
// computes each expected response on a solo reference engine built the
// way the pool builds (default pool options: seed 0, default epsilon).
// The reference engine is itself checked against serial MulVec.
func serveRequests(cfg *config, rep *report, a *sparse.CSR, isJSON bool) ([][]serveReq, error) {
	b, err := method.BuildByName(serveMethod, a, serveK, method.Options{})
	if err != nil {
		return nil, err
	}
	ref, err := spmv.New(b)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	at := a.Transpose()
	r := rand.New(rand.NewSource(cfg.seed))
	nrhs := 1
	if isJSON {
		nrhs = jsonNRHS
	}
	serial := make([]float64, a.Rows)
	out := make([][]serveReq, serveClients)
	for c := range out {
		out[c] = make([]serveReq, serveInputs)
		for i := range out[c] {
			q := &out[c][i]
			q.transpose = isJSON && i%2 == 1
			ys := make([][]float64, nrhs)
			q.xs = make([][]float64, nrhs)
			for v := range q.xs {
				q.xs[v] = randomVec(r, a.Cols)
				ys[v] = make([]float64, a.Rows)
				mul, serialMul := ref.Multiply, a.MulVec
				if q.transpose {
					mul, serialMul = ref.MultiplyTranspose, at.MulVec
				}
				if err := mul(q.xs[v], ys[v]); err != nil {
					return nil, err
				}
				serialMul(q.xs[v], serial)
				if diff, scale := maxAbsDiff(ys[v], serial); diff > mulRelTol*scale {
					rep.fail("reference engine differs from serial MulVec by %.3g (scale %.3g)", diff, scale)
				}
			}
			if cfg.corrupt {
				ys[0][0] = math.Nextafter(ys[0][0], math.Inf(1))
			}
			if isJSON {
				q.body, err = json.Marshal(jsonMultiply{Matrix: serveMatrix, Method: serveMethod, K: serveK, Xs: q.xs, Transpose: q.transpose})
				if err != nil {
					return nil, err
				}
				enc, err := json.Marshal(ys)
				if err != nil {
					return nil, err
				}
				q.want = append(append([]byte(`{"ys":`), enc...), `,"method":"`+serveMethod+`"`...)
			} else {
				q.body, err = wire.Append(nil, &wire.Frame{Op: wire.OpMultiplyReq, Matrix: serveMatrix, Method: serveMethod, K: serveK, Vectors: q.xs})
				if err != nil {
					return nil, err
				}
				q.want, err = wire.Append(nil, &wire.Frame{Op: wire.OpMultiplyResp, Matrix: serveMatrix, Method: serveMethod, K: serveK, Vectors: ys})
				if err != nil {
					return nil, err
				}
				q.exact = true
			}
		}
	}
	return out, nil
}

// server is one set-up of the serving stack on a loopback listener.
type server struct {
	pool   *serve.Pool
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string // http://host:port
	url    string // the multiply endpoint
	// tracedURL is the endpoint traced requests use: JSON ones ask for
	// the server's timings block.
	tracedURL string
	client    *http.Client
	isJSON    bool
}

// startServer is the measured serve set-up: pool, matrix, server,
// listener. tr, when non-nil, wraps the handler in a span recorder.
func startServer(a *sparse.CSR, isJSON bool, tr *tracer) (*server, error) {
	s := &server{pool: serve.NewPool(serve.Options{}), served: make(chan struct{}), isJSON: isJSON}
	if err := s.pool.AddMatrix(serveMatrix, a); err != nil {
		s.pool.Close()
		return nil, err
	}
	s.srv = serve.NewServer(s.pool)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.pool.Close()
		return nil, err
	}
	var h http.Handler = s.srv
	if tr != nil {
		h = handlerSpans(s.srv, tr)
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	s.base = "http://" + ln.Addr().String()
	s.url = s.base + "/v1/multiply"
	s.tracedURL = s.url
	if isJSON {
		s.tracedURL += "?timings=1"
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}
	return s, nil
}

// close stops the listener and the server goroutine, then the pool.
func (s *server) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close() // the only error is the listener's close error
	<-s.served
	s.pool.Close()
}

// handlerSpans records a serve.handler span around Server.ServeHTTP,
// parented to the client operation named in the request header.
func handlerSpans(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		t0 := tr.now()
		h.ServeHTTP(w, r)
		if op != 0 {
			tr.add(0, op, op, "serve.handler", t0, tr.now())
		}
	})
}

// post sends one request and reads the whole response into buf. A
// non-zero op marks a traced request.
func (s *server) post(q *serveReq, op int64, buf *bytes.Buffer) (int, error) {
	url := s.url
	if op != 0 {
		url = s.tracedURL
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(q.body))
	if err != nil {
		return 0, err
	}
	if s.isJSON {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", wire.ContentType)
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// check applies the oracle to one response.
func check(q *serveReq, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if q.exact && !bytes.Equal(body, q.want) || !bytes.HasPrefix(body, q.want) {
		return errors.New("response is not bitwise equal to the reference engine's result")
	}
	return nil
}

// clientStats is one closed-loop client's tally.
type clientStats struct {
	ops               *opLog
	attempted, failed int
	sheds             int
	reqBytes, rspByte int
	problems          []string
	// timings holds, traced JSON only, each op's raw timings block.
	timings map[int64][]byte
}

// load runs serveClients closed-loop clients for d, starting at start,
// and merges their tallies. A non-nil tr records an op span per request.
func (s *server) load(reqs [][]serveReq, start time.Time, d time.Duration, tr *tracer) (clientStats, time.Duration) {
	stats := make([]clientStats, serveClients)
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for c := range stats {
		wg.Add(1)
		go func(st *clientStats, mine []serveReq) {
			defer wg.Done()
			st.ops = newOpLog(1 << 14)
			if tr != nil && s.isJSON {
				st.timings = make(map[int64][]byte)
			}
			var buf bytes.Buffer
			for j := 0; time.Now().Before(deadline); j++ {
				q := &mine[j%len(mine)]
				op := tr.id()
				t0 := time.Now()
				status, err := s.post(q, op, &buf)
				t1 := time.Now()
				tr.add(op, 0, op, rootName, tr.at(t0), tr.at(t1))
				st.attempted++
				st.reqBytes += len(q.body)
				st.rspByte += buf.Len()
				if err == nil {
					err = check(q, status, buf.Bytes())
				}
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					st.sheds++
				}
				if err != nil {
					st.failed++
					if len(st.problems) < 5 {
						st.problems = append(st.problems, err.Error())
					}
					continue
				}
				st.ops.add(t0, t1)
				if st.timings != nil {
					if i := bytes.LastIndex(buf.Bytes(), []byte(`,"timings":`)); i >= 0 {
						// The block is the response's last field: drop the
						// closing brace and newline that end the object.
						tb := bytes.TrimSpace(buf.Bytes()[i+len(`,"timings":`):])
						st.timings[op] = bytes.Clone(tb[:len(tb)-1])
					}
				}
			}
		}(&stats[c], reqs[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := clientStats{ops: newOpLog(0)}
	for _, st := range stats {
		all.ops.merge(st.ops)
		all.attempted += st.attempted
		all.failed += st.failed
		all.sheds += st.sheds
		all.reqBytes += st.reqBytes
		all.rspByte += st.rspByte
		all.problems = append(all.problems, st.problems...)
		for op, t := range st.timings {
			if all.timings == nil {
				all.timings = make(map[int64][]byte)
			}
			all.timings[op] = t
		}
	}
	return all, elapsed
}

// poolCounts reads the pool-wide request and batch counters from
// /metrics (JSON view).
func (s *server) poolCounts() (requests, batches uint64, err error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var pm serve.PoolMetrics
	if err := json.NewDecoder(resp.Body).Decode(&pm); err != nil {
		return 0, 0, fmt.Errorf("decode /metrics: %w", err)
	}
	return pm.Requests, pm.Batches, nil
}

// runServe is the serve-binary (isJSON false) and serve-json workload:
// closed-loop clients against an in-process serve.Server over loopback
// HTTP. One op is one request.
func runServe(cfg *config, rep *report, isJSON bool) error {
	a := servePowerLaw(cfg.seed)
	reqs, err := serveRequests(cfg, rep, a, isJSON)
	if err != nil {
		return err
	}
	base := liveHeap()

	var s *server
	setup := func() setupResult {
		var buf bytes.Buffer
		t0 := time.Now()
		var err error
		s, err = startServer(a, isJSON, rep.tr)
		if err != nil {
			return setupResult{err: err}
		}
		status, err := s.post(&reqs[0][0], 0, &buf)
		took := time.Since(t0)
		if err != nil {
			return setupResult{err: err}
		}
		if err := check(&reqs[0][0], status, buf.Bytes()); err != nil {
			rep.fail("first request: %v", err)
		}
		return setupResult{took: took}
	}
	if err := runSetups(rep, serveSetups, base, setup, func() { s.close() }); err != nil {
		return err
	}
	defer s.close()
	h, err := s.pool.Acquire(serveMatrix, serveMethod, serveK)
	if err != nil {
		return err
	}
	rep.fp.Kernels = h.Kernel()
	h.Release()

	untracedLen, tracedLen := phaseLengths(cfg)
	req0, batch0, err := s.poolCounts()
	if err != nil {
		return err
	}
	wc := startWindows(untracedLen)
	st, elapsed := s.load(reqs, wc.start, untracedLen, nil)
	req1, batch1, err := s.poolCounts()
	if err != nil {
		return err
	}
	rep.latencies(wc, elapsed, st.ops)
	attempted, failed, sheds := st.attempted, st.failed, st.sheds
	for _, p := range st.problems {
		rep.fail("%s", p)
	}
	meanBatch := float64(req1-req0) / float64(max(batch1-batch0, 1))
	rep.notes = append(rep.notes, fmt.Sprintf("%d clients, mean batch width %.3f over the timed phase", serveClients, meanBatch))
	if !cfg.trace {
		rep.ops(attempted, failed)
		return nil
	}

	untracedP50 := median(st.ops.lat)
	tst, _ := s.load(reqs, time.Now(), tracedLen, rep.tr)
	for _, p := range tst.problems {
		rep.fail("%s", p)
	}
	rep.ops(attempted+tst.attempted, failed+tst.failed)
	l := rep.layers
	l["serve.mean_batch"] = meanBatch
	l["serve.sheds"] = float64(sheds + tst.sheds)
	l["serve.req_bytes"] = float64(st.reqBytes) / float64(max(st.attempted, 1))
	l["serve.resp_bytes"] = float64(st.rspByte) / float64(max(st.attempted, 1))
	if isJSON {
		if err := stageSpans(rep, tst.timings); err != nil {
			return err
		}
	}
	traceLayers(rep, untracedP50, median(tst.ops.lat))
	return serveLadder(rep, s, a, reqs[0], isJSON)
}

// stageSpans turns each traced JSON response's timings block into spans
// under that op's serve.handler span, laid out in stage order (top-level
// stages are contiguous from the handler's start; nested stages are
// contiguous from their parent's start), and sets the stage medians.
func stageSpans(rep *report, timings map[int64][]byte) error {
	tr := rep.tr
	handler := make(map[int64]span)
	for _, s := range tr.spans {
		if s.Name == "serve.handler" {
			handler[s.Op] = s
		}
	}
	stageMs := make(map[string][]float64)
	// The server sums the scheduler stages (queue, assemble, flush and
	// its phases) over a request's right-hand sides, one term per RHS
	// submission, and counts the terms in the flush span's "flushes"
	// attribute. Dividing by it gives the per-submission mean, which is
	// the stage's wall time when one batch carries the whole request.
	var lay func(op, parent, start int64, spans []obs.Span, div float64)
	lay = func(op, parent, start int64, spans []obs.Span, div float64) {
		for _, sp := range spans {
			if f, ok := sp.Attrs["flushes"].(float64); ok && f > 0 {
				div = f
			}
		}
		for _, sp := range spans {
			ms := sp.Ms / div
			end := start + int64(ms*1e6)
			id := tr.add(0, parent, op, "serve.stage."+sp.Stage, start, end)
			stageMs[sp.Stage] = append(stageMs[sp.Stage], ms)
			lay(op, id, start, sp.Spans, div)
			start = end
		}
	}
	for op, raw := range timings {
		var tb serve.TimingsBlock
		if err := json.Unmarshal(raw, &tb); err != nil {
			return fmt.Errorf("timings block: %w", err)
		}
		if h, ok := handler[op]; ok {
			lay(op, h.ID, h.Start, tb.Stages, 1)
		}
	}
	for _, st := range []string{"decode", "admission", "queue", "assemble", "flush", "encode"} {
		rep.layers["serve.stage."+st+"_ms"] = median(stageMs[st])
	}
	return nil
}

// serveLadder times the serve rungs sequentially on the workload's own
// request bodies: loopback HTTP, Server.ServeHTTP on a recorder,
// Handle.MultiplyBatch, and the engine alone (built and autotuned the
// way the pool builds one). Subtracting adjacent rungs splits a request
// into transport, codec+handler, scheduler and engine shares.
func serveLadder(rep *report, s *server, a *sparse.CSR, reqs []serveReq, isJSON bool) error {
	l := rep.layers
	var buf bytes.Buffer
	i := 0
	next := func() *serveReq { i++; return &reqs[i%len(reqs)] }
	// Each rung's first call is checked by the oracle; the timed calls
	// after it are not, so the check stays out of the timings.
	if status, err := s.post(&reqs[0], 0, &buf); err != nil || check(&reqs[0], status, buf.Bytes()) != nil {
		rep.fail("serve.http rung: status %d, %v", status, err)
	}
	l["serve.http_us"] = timeMedian(ladderReps, func() { _, _ = s.post(next(), 0, &buf) })
	ct := wire.ContentType
	if isJSON {
		ct = "application/json"
	}
	handle := func(q *serveReq) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(q.body))
		r.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		s.srv.ServeHTTP(rec, r)
		return rec
	}
	if rec := handle(&reqs[0]); check(&reqs[0], rec.Code, rec.Body.Bytes()) != nil {
		rep.fail("serve.handler rung: status %d", rec.Code)
	}
	l["serve.handler_us"] = timeMedian(ladderReps, func() { handle(next()) })
	h, err := s.pool.Acquire(serveMatrix, serveMethod, serveK)
	if err != nil {
		return err
	}
	tn := s.pool.Tenants().Default()
	if _, err := h.MultiplyBatch(context.Background(), tn, reqs[0].xs, reqs[0].transpose); err != nil {
		rep.fail("serve.batch rung: %v", err)
	}
	l["serve.batch_us"] = timeMedian(ladderReps, func() {
		q := next()
		_, _ = h.MultiplyBatch(context.Background(), tn, q.xs, q.transpose)
	})
	h.Release()

	// The engine rung, built like the pool: method build, compile, then
	// Autotune with the pipeline's kernel cache.
	tr := rep.tr
	root := tr.id()
	t0 := tr.now()
	pl := method.NewPipeline()
	b, eng, err := buildTimed(rep, root, serveMethod, a, serveK, method.Options{Pipeline: pl})
	if err != nil {
		return err
	}
	defer eng.Close()
	ta := tr.now()
	kr, err := eng.Autotune(spmv.TuneConfig{Cache: pl.KernelCache(a, b.Method, serveK, 0, 0)})
	if err != nil {
		return err
	}
	tf := tr.now()
	rep.notes = append(rep.notes, "engine rung kernels: "+kr.String())
	n := a.Rows
	w := len(reqs[0].xs)
	X, Y := make([]float64, n*w), make([]float64, n*w)
	for v, x := range reqs[0].xs {
		for j := range x {
			X[j*w+v] = x[j]
		}
	}
	var engCall, engT func()
	if isJSON {
		engCall = func() { _ = eng.MultiplyBlock(X, Y, w) }
		engT = func() { _ = eng.MultiplyTransposeBlock(X, Y, w) }
	} else {
		engCall = func() { _ = eng.Multiply(X, Y) }
	}
	engCall()
	tr.add(0, root, 0, "spmv.first_call", tf, tr.now())
	tr.add(0, root, 0, "spmv.autotune", ta, tf)
	tr.add(root, 0, 0, "engine-rung", t0, tr.now())
	l["spmv.autotune_s"] = float64(tf-ta) / 1e9
	if !buildLadder(rep, a, serveK, 0, b.Dist) {
		rep.notes = append(rep.notes, "ladder rungs do not reproduce the method build; setup rung figures are indicative only")
	}
	setupLayers(rep)
	commLayers(rep, b, eng, w, false)
	if isJSON {
		l["spmv.block_us"] = timeMedian(ladderReps, engCall)
		l["spmv.transpose_block_us"] = timeMedian(ladderReps, engT)
		l["serve.engine_us"] = (l["spmv.block_us"] + l["spmv.transpose_block_us"]) / 2
		x, y := X[:n], Y[:n]
		l["sparse.mulvec8_us"] = timeMedian(ladderReps, func() {
			for v := 0; v < w; v++ {
				a.MulVec(x, y)
			}
		})
		l["spmv.speedup_vs_serial"] = l["sparse.mulvec8_us"] / l["serve.engine_us"]
		l["spmv.allocs_per_op"] = allocsPerOp(50, func() { engCall(); engT() }) / 2
	} else {
		l["spmv.multiply_us"] = timeMedian(ladderReps, engCall)
		l["serve.engine_us"] = l["spmv.multiply_us"]
		l["sparse.mulvec_us"] = timeMedian(ladderReps, func() { a.MulVec(X, Y) })
		l["spmv.speedup_vs_serial"] = l["sparse.mulvec_us"] / l["serve.engine_us"]
		l["spmv.allocs_per_op"] = allocsPerOp(50, engCall)
		var out []byte
		resp := &wire.Frame{Op: wire.OpMultiplyResp, Matrix: serveMatrix, Method: serveMethod, K: serveK, Vectors: reqs[0].xs}
		l["wire.decode_us"] = timeMedian(ladderReps, func() { _, _ = wire.Decode(next().body) })
		l["wire.append_us"] = timeMedian(ladderReps, func() { out, _ = wire.Append(out[:0], resp) })
	}
	return nil
}
