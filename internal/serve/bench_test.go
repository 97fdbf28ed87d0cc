package serve

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/spmv"
)

// BenchmarkSchedulerSubmit measures the serving path end to end —
// submit, coalesce, SpMM, demultiplex — under the parallelism the
// benchmark harness offers (-cpu to vary). Compare against the raw
// engine benchmarks in internal/spmv to see the scheduling overhead.
func BenchmarkSchedulerSubmit(b *testing.B) {
	a := gen.Laplace2D(64, 64, false)
	bd, err := method.BuildByName("s2d", a, 4, method.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := spmv.New(bd)
	if err != nil {
		b.Fatal(err)
	}
	s := newScheduler(eng, a.Rows, a.Cols,
		Options{MaxBatch: 8}.withDefaults(), EngineKey{}, "", nil, nil)
	defer s.close()

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.submit(context.Background(), x); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := s.metrics()
	b.ReportMetric(m.MeanBatch, "batchwidth")
}
