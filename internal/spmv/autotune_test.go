package spmv

import (
	"math/rand"
	"testing"

	"repro/internal/method"
)

// tuneBuild builds one s2D engine fixture for tuner tests.
func tuneBuild(t *testing.T, opt method.Options) method.Build {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	a := randomMatrix(r, 200, 160, 2400)
	b, err := method.BuildByName("s2D", a, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mapCache is a KernelCache test double.
type mapCache struct{ m map[int]string }

func (c *mapCache) Lookup(nrhs int) (string, bool) { k, ok := c.m[nrhs]; return k, ok }
func (c *mapCache) Store(nrhs int, kernel string) {
	if c.m == nil {
		c.m = map[int]string{}
	}
	if _, dup := c.m[nrhs]; !dup {
		c.m[nrhs] = kernel
	}
}

func TestKernelReportDefault(t *testing.T) {
	opt := method.Options{Seed: 1, Pipeline: method.NewPipeline()}
	eng, err := New(tuneBuild(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	rep := eng.KernelReport()
	if len(rep.Choices) != numClasses {
		t.Fatalf("%d choices, want %d", len(rep.Choices), numClasses)
	}
	for _, ch := range rep.Choices {
		if ch.Kernel != "scalar" || ch.Source != "default" {
			t.Fatalf("untuned engine reports %+v, want scalar/default", ch)
		}
	}
	for _, w := range []int{1, 3, 8} {
		if got := rep.For(w); got != "scalar" {
			t.Fatalf("For(%d) = %q, want scalar", w, got)
		}
	}
}

func TestAutotuneForce(t *testing.T) {
	opt := method.Options{Seed: 1, Pipeline: method.NewPipeline()}
	eng, err := New(tuneBuild(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	rep, err := eng.Autotune(TuneConfig{Force: "reg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range rep.Choices {
		if ch.Kernel != "reg" || ch.Source != "forced" {
			t.Fatalf("forced choice %+v, want reg/forced", ch)
		}
	}
	if got := eng.KernelReport().For(8); got != "reg" {
		t.Fatalf("installed kernel %q, want reg", got)
	}
	if _, err := eng.Autotune(TuneConfig{Force: "simd512"}); err == nil {
		t.Fatal("unknown forced kernel must error")
	}
}

func TestAutotuneProbedReport(t *testing.T) {
	opt := method.Options{Seed: 1, Pipeline: method.NewPipeline()}
	b := tuneBuild(t, opt)
	eng, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	rep, err := eng.Autotune(TuneConfig{Widths: []int{1, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, n := range KernelNames() {
		valid[n] = true
	}
	probed := 0
	for _, ch := range rep.Choices {
		switch ch.Source {
		case "fixed":
			// The single-vector class has one candidate: set, not probed.
			if ch.NRHS != 1 || ch.Kernel != "scalar" {
				t.Fatalf("fixed choice %+v, want the nrhs=1 class on scalar", ch)
			}
		case "probed":
			probed++
			if !valid[ch.Kernel] {
				t.Fatalf("probed winner %q is not a registered backend", ch.Kernel)
			}
			if len(ch.ProbesNs) == 0 {
				t.Fatalf("probed choice %+v carries no probe times", ch)
			}
			if _, ok := ch.ProbesNs["scalar"]; !ok {
				t.Fatalf("probe table %v missing the scalar reference", ch.ProbesNs)
			}
		case "default":
			// widths not asked for stay untouched
			if ch.NRHS == 1 || ch.NRHS == 4 || ch.NRHS == 8 {
				t.Fatalf("requested width %d left untuned", ch.NRHS)
			}
		default:
			t.Fatalf("unexpected source %q", ch.Source)
		}
	}
	if probed != 2 {
		t.Fatalf("probed %d classes, want 2", probed)
	}

	// Whatever won, results must stay bitwise identical to a scalar
	// engine on the same build.
	ref, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	a := b.Dist.A
	x := make([]float64, a.Cols*8)
	for i := range x {
		x[i] = float64(i%11) - 5
	}
	y := make([]float64, a.Rows*8)
	want := make([]float64, a.Rows*8)
	for _, nrhs := range []int{1, 4, 8} {
		if err := eng.MultiplyBlock(x[:a.Cols*nrhs], y[:a.Rows*nrhs], nrhs); err != nil {
			t.Fatal(err)
		}
		if err := ref.MultiplyBlock(x[:a.Cols*nrhs], want[:a.Rows*nrhs], nrhs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < a.Rows*nrhs; i++ {
			if y[i] != want[i] {
				t.Fatalf("nrhs=%d: tuned engine diverges at [%d]: %x vs %x", nrhs, i, y[i], want[i])
			}
		}
	}
}

// TestAutotuneDeterministicAcrossBuilds pins the cross-build
// determinism contract: two NewTuned builds over one pipeline must
// install identical kernels — the first probes, the second reads the
// memoized verdicts ("cached") without re-timing. The generic and
// single-vector classes have one candidate and are "fixed" on both.
func TestAutotuneDeterministicAcrossBuilds(t *testing.T) {
	opt := method.Options{Seed: 1, Pipeline: method.NewPipeline()}
	b := tuneBuild(t, opt)

	eng1, rep1, err := NewTuned(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng1.Close()
	eng2, rep2, err := NewTuned(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Close()

	for _, w := range []int{0, 1, 2, 3, 4, 8, 9} {
		if rep1.For(w) != rep2.For(w) {
			t.Fatalf("width %d: first build %q, second %q — tuner not deterministic across builds",
				w, rep1.For(w), rep2.For(w))
		}
	}
	for _, ch := range rep2.Choices {
		want := "cached"
		if ch.NRHS <= 1 {
			want = "fixed"
		}
		if ch.Source != want {
			t.Fatalf("second build's class %d came from %q, want %s", ch.NRHS, ch.Source, want)
		}
	}
	// A distinct K (different memo key) must not see these entries.
	if opt.Pipeline.KernelCache(b.Dist.A, b.Method, 16, opt.Seed, opt.Epsilon) ==
		opt.Pipeline.KernelCache(b.Dist.A, b.Method, b.Dist.K, opt.Seed, opt.Epsilon) {
		t.Fatal("kernel caches for different K must be distinct")
	}
}

func TestAutotuneHonorsPrepopulatedCache(t *testing.T) {
	opt := method.Options{Seed: 1, Pipeline: method.NewPipeline()}
	eng, err := New(tuneBuild(t, opt))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	cache := &mapCache{m: map[int]string{8: "reg"}}
	rep, err := eng.Autotune(TuneConfig{Widths: []int{8}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.For(8); got != "reg" {
		t.Fatalf("For(8) = %q, want the cached reg", got)
	}
	for _, ch := range rep.Choices {
		if ch.NRHS == 8 && ch.Source != "cached" {
			t.Fatalf("class 8 source %q, want cached", ch.Source)
		}
	}
	// A cached name that no longer resolves must fail loudly, not
	// silently fall back.
	bad := &mapCache{m: map[int]string{4: "avx9"}}
	if _, err := eng.Autotune(TuneConfig{Widths: []int{4}, Cache: bad}); err == nil {
		t.Fatal("unknown cached kernel must error")
	}
}

func TestNewTunedForceKernelOption(t *testing.T) {
	opt := method.Options{Seed: 1, Pipeline: method.NewPipeline(), ForceKernel: "reg"}
	b := tuneBuild(t, opt)
	eng, rep, err := NewTuned(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for _, ch := range rep.Choices {
		if ch.Kernel != "reg" || ch.Source != "forced" {
			t.Fatalf("choice %+v, want reg/forced", ch)
		}
	}
	if got := eng.KernelReport().String(); got != "0:reg 1:reg 2:reg 4:reg 8:reg" {
		t.Fatalf("report string %q", got)
	}
}
