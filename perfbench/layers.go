package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/hypergraph"
	"repro/internal/method"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// setupResult is what one set-up repetition measured.
type setupResult struct {
	took time.Duration
	err  error
}

// runSetups repeats set-up n times and reports the median set-up time
// as setup_s, and the median live heap kept after set-up minus base (the
// heap with only the generated inputs resident) as mem_mb. Every repetition but the last is torn down by teardown, so the
// last one's state stays live for the timed phase.
func runSetups(rep *report, n int, base uint64, setup func() setupResult, teardown func()) error {
	took := make([]float64, 0, n)
	mem := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		r := setup()
		if r.err != nil {
			return r.err
		}
		took = append(took, r.took.Seconds())
		mem = append(mem, (float64(liveHeap())-float64(base))/(1<<20))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("set-ups: s %.4g; MiB %.4g", took, mem))
	rep.e2e["setup_s"] = sampled{median(took), n}
	rep.e2e["mem_mb"] = sampled{median(mem), n}
	return nil
}

// buildTimed runs the method build and engine compile that every set-up
// starts with, recording their spans under root when traced.
func buildTimed(rep *report, root int64, name string, a *sparse.CSR, k int, opt method.Options) (method.Build, spmv.Multiplier, error) {
	tr := rep.tr
	t0 := tr.now()
	b, err := method.BuildByName(name, a, k, opt)
	if err != nil {
		return b, nil, err
	}
	t1 := tr.now()
	eng, err := spmv.New(b)
	if err != nil {
		return b, nil, err
	}
	t2 := tr.now()
	tr.add(0, root, 0, "method.build", t0, t1)
	tr.add(0, root, 0, "spmv.compile", t1, t2)
	return b, eng, nil
}

// buildLadder times, once, the layers a method build runs internally —
// the column-net hypergraph model, the partitioner, the 1D distribution
// and Algorithm 1 — by calling each module directly the way the method
// registry's s2D builds do. It returns false when the rungs do not reproduce the
// build's distribution, in which case the rung figures do not describe
// that build.
func buildLadder(rep *report, a *sparse.CSR, k int, seed int64, built *distrib.Distribution) bool {
	tr := rep.tr
	root := tr.id()
	t0 := tr.now()
	h := hypergraph.ColumnNetModel(a)
	t1 := tr.now()
	parts := partition.Partition(h, partition.Config{K: k, Seed: seed})
	t2 := tr.now()
	d1 := baselines.Rowwise1DFromParts(a, parts, k)
	t3 := tr.now()
	d := core.Balanced(a, d1.XPart, d1.YPart, k, core.BalanceConfig{})
	t4 := tr.now()
	tr.add(0, root, 0, "hypergraph.model", t0, t1)
	tr.add(0, root, 0, "partition.partition", t1, t2)
	tr.add(0, root, 0, "baselines.rowwise1d", t2, t3)
	tr.add(0, root, 0, "core.s2d", t3, t4)
	tr.add(root, 0, 0, "ladder", t0, t4)
	rep.layers["hypergraph.model_s"] = float64(t1-t0) / 1e9
	rep.layers["partition.partition_s"] = float64(t2-t1) / 1e9
	rep.layers["core.s2d_s"] = float64(t4-t3) / 1e9
	return slices.Equal(d.Owner, built.Owner) && slices.Equal(d.XPart, built.XPart) && slices.Equal(d.YPart, built.YPart)
}

// setupLayers derives method.build_s, spmv.compile_s and
// spmv.first_call_s from the set-up spans (medians over repetitions).
func setupLayers(rep *report) {
	var build, compile, first []float64
	for _, s := range rep.tr.spans {
		d := float64(s.End-s.Start) / 1e9
		switch s.Name {
		case "method.build":
			build = append(build, d)
		case "spmv.compile":
			compile = append(compile, d)
		case "spmv.first_call":
			first = append(first, d)
		}
	}
	l := rep.layers
	l["method.build_s"] = median(build)
	l["spmv.compile_s"] = median(compile)
	l["spmv.first_call_s"] = median(first)
}

// commLayers records the schedule's communication counts from the build
// and checks them against the engine's compiled schedule, then places the
// CrayXE6 α–β estimate for one operation beside them. nrhs and transpose
// describe the operation (transpose adds a transpose multiply).
func commLayers(rep *report, b method.Build, eng spmv.Multiplier, nrhs int, transpose bool) {
	cs := b.Comm()
	ss := eng.ScheduleStats()
	if cs.TotalMsgs != ss.TotalMsgs || cs.TotalVolume != ss.TotalVolume {
		rep.fail("schedule stats (%d msgs, %d words) differ from the build's (%d msgs, %d words)",
			ss.TotalMsgs, ss.TotalVolume, cs.TotalMsgs, cs.TotalVolume)
	}
	l := rep.layers
	l["distrib.total_msgs"] = float64(cs.TotalMsgs)
	l["distrib.max_send_msgs"] = float64(cs.MaxSendMsgs)
	l["distrib.volume_words"] = float64(cs.TotalVolume)
	l["distrib.max_send_vol"] = float64(cs.MaxSendVol)
	l["distrib.load_imbalance"] = b.Dist.LoadImbalance()
	mc := model.CrayXE6()
	loads, nnz := b.Dist.PartLoads(), b.Dist.A.NNZ()
	est := mc.EvaluateNRHS(loads, cs.Phases, nnz, nrhs).ParallelTime
	if transpose {
		est += mc.EvaluateTranspose(loads, cs.Phases, nnz, nrhs).ParallelTime
	}
	l["model.est_us"] = est * 1e6
}

// randomVec returns n values uniform in [-1, 1).
func randomVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// maxAbsDiff returns max_i |a_i - b_i| and max_i |b_i|.
func maxAbsDiff(a, b []float64) (diff, scale float64) {
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	return diff, scale
}

// bitEqual reports whether two vectors are identical bit for bit.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
