package core_test

import (
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/gen"
)

// msgPairs returns the (sender, receiver) pairs that exchange at least
// one word under d, keyed as distrib.MsgAccum keys them.
func msgPairs(d *distrib.Distribution) map[int64]bool {
	expand, fold := d.ExpandFold()
	pairs := make(map[int64]bool, len(expand.Vol)+len(fold.Vol))
	for key := range expand.Vol { //spmvlint:unordered set insertion
		pairs[key] = true
	}
	for key := range fold.Vol { //spmvlint:unordered set insertion
		pairs[key] = true
	}
	return pairs
}

// TestBalancedMessagesWithin1D is the paper's message-count invariant as
// a property over seeded power-law matrices, square and rectangular: the
// s2D distribution core.Balanced derives from a 1D rowwise one keeps the
// s2D condition, and every sender→receiver pair it uses is already a 1D
// pair — a partial a_ij·x_j travels from x_j's owner to y_i's owner,
// the edge on which 1D ships x_j — so its total and per-processor
// message counts never exceed 1D's.
func TestBalancedMessagesWithin1D(t *testing.T) {
	shapes := []struct{ rows, cols int }{{600, 600}, {900, 300}, {300, 900}}
	for seed := int64(1); seed <= 9; seed++ {
		sh := shapes[seed%3]
		a := gen.PowerLaw(gen.PowerLawConfig{
			Rows: sh.rows, Cols: sh.cols, NNZ: 5 * max(sh.rows, sh.cols), Beta: 0.7,
			DenseRows: 1, DenseMax: min(sh.rows, sh.cols) / 4, Locality: 0.4 * float64(seed%3),
		}, seed)
		for _, k := range []int{4, 9, 16} {
			t.Run(fmt.Sprintf("seed=%d/%dx%d/K=%d", seed, sh.rows, sh.cols, k), func(t *testing.T) {
				oneD := baselines.Rowwise1DFromParts(a, baselines.RowwiseParts(a, k, baselines.Options{Seed: seed}), k)
				s2d := core.Balanced(a, oneD.XPart, oneD.YPart, k, core.BalanceConfig{})
				if !s2d.IsS2D() {
					t.Fatal("core.Balanced result violates the s2D condition")
				}
				ref := msgPairs(oneD)
				for key := range msgPairs(s2d) { //spmvlint:unordered membership check only
					if !ref[key] {
						t.Fatalf("s2D sends %d→%d, a pair 1D never uses", key/int64(k), key%int64(k))
					}
				}
				c1, c2 := oneD.Comm(), s2d.Comm()
				if c1.TotalMsgs == 0 {
					t.Fatal("1D sends no messages: the fixture cannot exercise the bound")
				}
				if c2.TotalMsgs > c1.TotalMsgs || c2.MaxSendMsgs > c1.MaxSendMsgs {
					t.Fatalf("s2D messages total %d / max-send %d exceed 1D's %d / %d",
						c2.TotalMsgs, c2.MaxSendMsgs, c1.TotalMsgs, c1.MaxSendMsgs)
				}
			})
		}
	}
}
