package spmv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"repro/internal/method"
)

// pinnedBuild reports whether this test binary targets amd64 at the
// baseline GOAMD64=v1 level, the only configuration the pinned table
// below was captured for. The Go spec lets an implementation fuse
// x*y + z into one FMA instruction with a single rounding; the gc
// compiler does so on arm64 (the macOS CI runners) and on amd64 from
// GOAMD64=v3, so `acc += v*x` legitimately rounds differently there.
func pinnedBuild() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "GOAMD64" {
			return s.Value == "v1"
		}
	}
	return false
}

// TestEngineOutputBitsPinned pins the exact output bits of every
// multiply surface against a table captured from a known-good build:
// every registry method at K ∈ {4, 16}, forward and transpose, the
// single-vector call and every block width 1…9, under the scalar and
// reg backends. A refactor of the run bodies, buffers or kernels must
// not move a single bit — summation order is part of the engine's
// determinism contract. Each entry is FNV-64a over the
// math.Float64bits of every output in sweep order.
func TestEngineOutputBitsPinned(t *testing.T) {
	if !pinnedBuild() {
		t.Skipf("output bits are pinned for amd64 GOAMD64=v1 only (here %s): other targets may fuse multiply-adds into FMA", runtime.GOARCH)
	}
	rect, square := equivFixtures()
	got := make(map[string]uint64)
	for _, k := range []int{4, 16} {
		opt := method.Options{Seed: 7, Pipeline: method.NewPipeline()}
		for _, name := range method.Names() {
			eng, fx := equivEngine(t, name, k, opt, rect, square)
			a := fx.a
			for _, kern := range []string{"scalar", "reg"} {
				if _, err := eng.Autotune(TuneConfig{Force: kern}); err != nil {
					t.Fatalf("%s/K=%d force %s: %v", name, k, kern, err)
				}
				for _, dir := range []string{"fwd", "tr"} {
					in, rows, cols := fx.x, a.Rows, a.Cols
					vec, blk := eng.Multiply, eng.MultiplyBlock
					if dir == "tr" {
						in, rows, cols = fx.xt, a.Cols, a.Rows
						vec, blk = eng.MultiplyTranspose, eng.MultiplyTransposeBlock
					}
					h := fnv.New64a()
					add := func(y []float64) {
						var b [8]byte
						for _, v := range y {
							binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
							h.Write(b[:])
						}
					}
					y := make([]float64, rows)
					if err := vec(in[:cols], y); err != nil {
						t.Fatalf("%s/K=%d %s %s: %v", name, k, kern, dir, err)
					}
					add(y)
					for nrhs := 1; nrhs <= 9; nrhs++ {
						Y := make([]float64, rows*nrhs)
						if err := blk(in[:cols*nrhs], Y, nrhs); err != nil {
							t.Fatalf("%s/K=%d %s %s nrhs=%d: %v", name, k, kern, dir, nrhs, err)
						}
						add(Y)
					}
					got[fmt.Sprintf("%s/K=%d/%s/%s", name, k, kern, dir)] = h.Sum64()
				}
			}
		}
	}
	var bad []string
	for key, sum := range got { //spmvlint:unordered mismatches are sorted before reporting
		if want, ok := pinnedOutputBits[key]; !ok || want != sum {
			bad = append(bad, fmt.Sprintf("\t%q: %#016x, // pinned %#016x", key, sum, want))
		}
	}
	if len(pinnedOutputBits) != len(got) {
		t.Errorf("pinned table has %d entries, sweep produced %d", len(pinnedOutputBits), len(got))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Fatalf("%d of %d output hashes moved:\n%s", len(bad), len(got), strings.Join(bad, "\n"))
	}
}

// pinnedOutputBits maps "method/K=k/kernel/direction" to the FNV-64a
// of that sweep's output bits (see TestEngineOutputBitsPinned).
var pinnedOutputBits = map[string]uint64{
	"1D-b/K=16/reg/fwd":       0xa8b73135f62bcecc,
	"1D-b/K=16/reg/tr":        0x5d217bccd3fdf1df,
	"1D-b/K=16/scalar/fwd":    0xa8b73135f62bcecc,
	"1D-b/K=16/scalar/tr":     0x5d217bccd3fdf1df,
	"1D-b/K=4/reg/fwd":        0x7b0dbf77f913e779,
	"1D-b/K=4/reg/tr":         0xf4b9f6a410b341b8,
	"1D-b/K=4/scalar/fwd":     0x7b0dbf77f913e779,
	"1D-b/K=4/scalar/tr":      0xf4b9f6a410b341b8,
	"1D-col/K=16/reg/fwd":     0xd20056aadb95f807,
	"1D-col/K=16/reg/tr":      0x19ba56aa4920fa96,
	"1D-col/K=16/scalar/fwd":  0xd20056aadb95f807,
	"1D-col/K=16/scalar/tr":   0x19ba56aa4920fa96,
	"1D-col/K=4/reg/fwd":      0x606b5d7f41a62e5a,
	"1D-col/K=4/reg/tr":       0x6981110bc1448c83,
	"1D-col/K=4/scalar/fwd":   0x606b5d7f41a62e5a,
	"1D-col/K=4/scalar/tr":    0x6981110bc1448c83,
	"1D/K=16/reg/fwd":         0x522d97d9386be491,
	"1D/K=16/reg/tr":          0x9fc384a1b5bdd8dd,
	"1D/K=16/scalar/fwd":      0x522d97d9386be491,
	"1D/K=16/scalar/tr":       0x9fc384a1b5bdd8dd,
	"1D/K=4/reg/fwd":          0x8cf1558a3c64cd58,
	"1D/K=4/reg/tr":           0xe72aa25f3259845b,
	"1D/K=4/scalar/fwd":       0x8cf1558a3c64cd58,
	"1D/K=4/scalar/tr":        0xe72aa25f3259845b,
	"2D-b/K=16/reg/fwd":       0xacba72a899e2392f,
	"2D-b/K=16/reg/tr":        0xf57a76756638899a,
	"2D-b/K=16/scalar/fwd":    0xacba72a899e2392f,
	"2D-b/K=16/scalar/tr":     0xf57a76756638899a,
	"2D-b/K=4/reg/fwd":        0x2c4a0fbfeab037af,
	"2D-b/K=4/reg/tr":         0xe5028f017bf9f4eb,
	"2D-b/K=4/scalar/fwd":     0x2c4a0fbfeab037af,
	"2D-b/K=4/scalar/tr":      0xe5028f017bf9f4eb,
	"2D/K=16/reg/fwd":         0x587c1ed909ff2622,
	"2D/K=16/reg/tr":          0xf7463d5dddaa8b90,
	"2D/K=16/scalar/fwd":      0x587c1ed909ff2622,
	"2D/K=16/scalar/tr":       0xf7463d5dddaa8b90,
	"2D/K=4/reg/fwd":          0x3c610eaee516b988,
	"2D/K=4/reg/tr":           0x6233b3753b55d1f3,
	"2D/K=4/scalar/fwd":       0x3c610eaee516b988,
	"2D/K=4/scalar/tr":        0x6233b3753b55d1f3,
	"s2D-b/K=16/reg/fwd":      0x0ea9061687e8e649,
	"s2D-b/K=16/reg/tr":       0x6c2156c3d6a81392,
	"s2D-b/K=16/scalar/fwd":   0x0ea9061687e8e649,
	"s2D-b/K=16/scalar/tr":    0x6c2156c3d6a81392,
	"s2D-b/K=4/reg/fwd":       0x8cf1558a3c64cd58,
	"s2D-b/K=4/reg/tr":        0xf1759e0d305dde35,
	"s2D-b/K=4/scalar/fwd":    0x8cf1558a3c64cd58,
	"s2D-b/K=4/scalar/tr":     0xf1759e0d305dde35,
	"s2D-mg/K=16/reg/fwd":     0x8cc1a2b54afc6053,
	"s2D-mg/K=16/reg/tr":      0x3141376ae37012f6,
	"s2D-mg/K=16/scalar/fwd":  0x8cc1a2b54afc6053,
	"s2D-mg/K=16/scalar/tr":   0x3141376ae37012f6,
	"s2D-mg/K=4/reg/fwd":      0x3614e272f3483392,
	"s2D-mg/K=4/reg/tr":       0x948835d3948b3d77,
	"s2D-mg/K=4/scalar/fwd":   0x3614e272f3483392,
	"s2D-mg/K=4/scalar/tr":    0x948835d3948b3d77,
	"s2D-mgS/K=16/reg/fwd":    0xf5e44f7a2b6de4ac,
	"s2D-mgS/K=16/reg/tr":     0x23272aa9019e6821,
	"s2D-mgS/K=16/scalar/fwd": 0xf5e44f7a2b6de4ac,
	"s2D-mgS/K=16/scalar/tr":  0x23272aa9019e6821,
	"s2D-mgS/K=4/reg/fwd":     0xb1820d595c51e271,
	"s2D-mgS/K=4/reg/tr":      0xb098f1fc08c485ab,
	"s2D-mgS/K=4/scalar/fwd":  0xb1820d595c51e271,
	"s2D-mgS/K=4/scalar/tr":   0xb098f1fc08c485ab,
	"s2D-opt/K=16/reg/fwd":    0xab9a1222561a119a,
	"s2D-opt/K=16/reg/tr":     0xa3795c1a086b07a4,
	"s2D-opt/K=16/scalar/fwd": 0xab9a1222561a119a,
	"s2D-opt/K=16/scalar/tr":  0xa3795c1a086b07a4,
	"s2D-opt/K=4/reg/fwd":     0x8cf1558a3c64cd58,
	"s2D-opt/K=4/reg/tr":      0xe72aa25f3259845b,
	"s2D-opt/K=4/scalar/fwd":  0x8cf1558a3c64cd58,
	"s2D-opt/K=4/scalar/tr":   0xe72aa25f3259845b,
	"s2D-rcm/K=16/reg/fwd":    0xa221ccc48288fc07,
	"s2D-rcm/K=16/reg/tr":     0x8a8071daaa3f530d,
	"s2D-rcm/K=16/scalar/fwd": 0xa221ccc48288fc07,
	"s2D-rcm/K=16/scalar/tr":  0x8a8071daaa3f530d,
	"s2D-rcm/K=4/reg/fwd":     0xc7e546f01358b76d,
	"s2D-rcm/K=4/reg/tr":      0x0711bcc694d13324,
	"s2D-rcm/K=4/scalar/fwd":  0xc7e546f01358b76d,
	"s2D-rcm/K=4/scalar/tr":   0x0711bcc694d13324,
	"s2D-x/K=16/reg/fwd":      0x0ea9061687e8e649,
	"s2D-x/K=16/reg/tr":       0x60a3447e597a6bab,
	"s2D-x/K=16/scalar/fwd":   0x0ea9061687e8e649,
	"s2D-x/K=16/scalar/tr":    0x60a3447e597a6bab,
	"s2D-x/K=4/reg/fwd":       0x8cf1558a3c64cd58,
	"s2D-x/K=4/reg/tr":        0xe72aa25f3259845b,
	"s2D-x/K=4/scalar/fwd":    0x8cf1558a3c64cd58,
	"s2D-x/K=4/scalar/tr":     0xe72aa25f3259845b,
	"s2D/K=16/reg/fwd":        0x0ea9061687e8e649,
	"s2D/K=16/reg/tr":         0x60a3447e597a6bab,
	"s2D/K=16/scalar/fwd":     0x0ea9061687e8e649,
	"s2D/K=16/scalar/tr":      0x60a3447e597a6bab,
	"s2D/K=4/reg/fwd":         0x8cf1558a3c64cd58,
	"s2D/K=4/reg/tr":          0xe72aa25f3259845b,
	"s2D/K=4/scalar/fwd":      0x8cf1558a3c64cd58,
	"s2D/K=4/scalar/tr":       0xe72aa25f3259845b,
}
