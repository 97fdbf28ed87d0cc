package gen

import (
	"math/rand"

	"repro/internal/sparse"
)

// BandConfig configures a FEM-like banded matrix generator. Matrices from
// structural engineering (crystk02, trdheim, 3dtube, pkustk12, turon_m)
// have near-regular row degrees produced by element connectivity; we model
// them as symmetric variable-band matrices with an optional handful of
// planted dense rows to reach the published d_max.
type BandConfig struct {
	N            int // matrix dimension
	MinHalfBand  int // per-row half bandwidth drawn uniformly in [Min,Max]
	MaxHalfBand  int
	DenseRows    int // number of planted dense rows (0 for regular FEM)
	DenseDegree  int // nonzeros per planted dense row
	JitterStride int // >1 spreads band neighbours to every k-th index
}

// Band generates a symmetric FEM-like matrix. The diagonal is always
// present; off-diagonals are mirrored so row and column degree profiles
// coincide, as in the paper's structural matrices.
func Band(cfg BandConfig, seed int64) *sparse.CSR {
	if cfg.JitterStride < 1 {
		cfg.JitterStride = 1
	}
	r := rand.New(rand.NewSource(seed))
	n := cfg.N
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+r.Float64())
		w := cfg.MinHalfBand
		if cfg.MaxHalfBand > cfg.MinHalfBand {
			w += r.Intn(cfg.MaxHalfBand - cfg.MinHalfBand + 1)
		}
		// Upper off-diagonals only; mirrored below. Stride spreads the
		// band so degree stays the same while the profile widens.
		for d := 1; d <= w; d++ {
			j := i + d*cfg.JitterStride
			if j >= n {
				break
			}
			v := -1 + r.Float64()*0.1
			c.Add(i, j, v)
			c.Add(j, i, v)
		}
	}
	plantDenseRows(c, r, cfg.DenseRows, cfg.DenseDegree, true)
	return c.ToCSR()
}

// plantDenseRows adds denseRows rows with approximately degree nonzeros at
// uniformly random columns, mirrored when symmetric and the matrix is
// square (a rectangular matrix has no transpose position to mirror into).
// Rows are chosen spread across the row range; columns come from
// [0, Cols).
func plantDenseRows(c *sparse.COO, r *rand.Rand, denseRows, degree int, symmetric bool) {
	if denseRows <= 0 || degree <= 0 {
		return
	}
	m, n := c.Rows, c.Cols
	mirror := symmetric && m == n
	for k := 0; k < denseRows; k++ {
		row := (k*m)/denseRows + r.Intn(m/denseRows+1)
		if row >= m {
			row = m - 1
		}
		if degree >= n {
			for j := 0; j < n; j++ {
				c.Add(row, j, 0.01)
				if mirror {
					c.Add(j, row, 0.01)
				}
			}
			continue
		}
		for t := 0; t < degree; t++ {
			j := r.Intn(n)
			c.Add(row, j, 0.01)
			if mirror {
				c.Add(j, row, 0.01)
			}
		}
	}
}
