package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/sparse"
)

// csrChecksum is an FNV-64a digest of a matrix's shape, structure and
// value bits: equal digests mean byte-identical CSR arrays.
func csrChecksum(m *sparse.CSR) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, p := range m.RowPtr {
		put(uint64(p))
	}
	for _, j := range m.ColIdx {
		put(uint64(j))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// TestPowerLawRectangularInRange: dense rows planted into a non-square
// power-law matrix draw their columns from [0, Cols), so every index is
// in range and the column-net hypergraph builds.
func TestPowerLawRectangularInRange(t *testing.T) {
	for _, shape := range []struct{ rows, cols int }{{900, 300}, {300, 900}} {
		for _, sym := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d/sym=%v", shape.rows, shape.cols, sym), func(t *testing.T) {
				m := PowerLaw(PowerLawConfig{
					Rows: shape.rows, Cols: shape.cols, NNZ: 8 * shape.rows, Beta: 0.5,
					DenseRows: 3, DenseMax: shape.rows / 4, Symmetric: sym, Locality: 0.5,
				}, 1)
				if m.Rows != shape.rows || m.Cols != shape.cols || len(m.RowPtr) != m.Rows+1 {
					t.Fatalf("shape %dx%d (rowptr %d), want %dx%d", m.Rows, m.Cols, len(m.RowPtr), shape.rows, shape.cols)
				}
				for i := 0; i < m.Rows; i++ {
					for _, j := range m.RowCols(i) {
						if j < 0 || j >= m.Cols {
							t.Fatalf("row %d holds column %d outside [0,%d)", i, j, m.Cols)
						}
					}
				}
				h := hypergraph.ColumnNetModel(m)
				if h == nil {
					t.Fatal("ColumnNetModel returned nil")
				}
			})
		}
	}
}

// TestSquareGeneratorsUnchanged pins the square generator outputs bit
// for bit: every suite stand-in at a small scale, the two benchmark
// stand-ins at their benchmark scales, and the 1280-row serving
// matrix. Rectangular support in plantDenseRows must not move any of
// these inputs.
func TestSquareGeneratorsUnchanged(t *testing.T) {
	want := map[string]uint64{
		"A/3dtube@0.002":      0x5e3f62529b5ca2b2,
		"A/ASIC_680k@0.002":   0x354483dfc2dd3907,
		"A/c-big@0.002":       0xb51f6d327cd74287,
		"A/crystk02@0.002":    0x957281df49b82247,
		"A/pattern1@0.002":    0xdfa41f821a4a2410,
		"A/pkustk12@0.002":    0xad36e856414528a4,
		"A/trdheim@0.002":     0xe626fde1705680e0,
		"A/turon_m@0.002":     0xdf760f6fe755990d,
		"B/ASIC_680k@0.002":   0x354483dfc2dd3907,
		"B/boyd2@0.002":       0xbf974cbf56c84453,
		"B/c-big@0.002":       0xb51f6d327cd74287,
		"B/com-Youtube@0.002": 0x76f086edc8820fc0,
		"B/ins2@0.002":        0x85a4fe6beca19041,
		"B/lp1@0.002":         0x552c35cb2c52d5bf,
		"B/rajat30@0.002":     0xa6325ed40d344499,
		"B/rmat_20@0.002":     0xa56928ec62072b71,
		"c-big@0.28":          0x9d6c8636e48c3bd,
		"com-Youtube@0.08":    0x9b147ef9066e86f8,
		"powerlaw-1280":       0x141cad88534a9feb,
	}
	got := map[string]uint64{}
	for _, set := range []struct {
		name  string
		specs []Spec
	}{{"A", SetA()}, {"B", SetB()}} {
		for _, s := range set.specs {
			got[set.name+"/"+s.Name+"@0.002"] = csrChecksum(s.Generate(0.002, 1))
		}
	}
	for _, c := range []struct {
		name  string
		scale float64
	}{{"com-Youtube", 0.08}, {"c-big", 0.28}} {
		s, _ := ByName(c.name)
		got[fmt.Sprintf("%s@%g", c.name, c.scale)] = csrChecksum(s.Generate(c.scale, 1))
	}
	got["powerlaw-1280"] = csrChecksum(PowerLaw(PowerLawConfig{
		Rows: 1280, Cols: 1280, NNZ: 12800, Beta: 0.5,
		DenseRows: 2, DenseMax: 80, Symmetric: true, Locality: 0.9,
	}, 1))
	if len(got) != len(want) {
		t.Fatalf("checksummed %d inputs, want %d", len(got), len(want))
	}
	for k, w := range want { //spmvlint:unordered independent per-key comparisons
		if got[k] != w {
			t.Errorf("%s checksum %#x, want %#x", k, got[k], w)
		}
	}
}
