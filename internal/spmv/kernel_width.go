package spmv

// Width-specialized SpMM loops (the "reg" backend).
//
// The generic valueBlock does not know w at compile time: it sweeps a
// slot's run once per four columns and stores each slot's sums through
// the acc scratch before they reach the output. With the width fixed at
// compile time all w accumulators live in registers for one sweep of
// the run and go straight to the output, and slicing xs to a constant
// length (`xl[j*4 : j*4+4]`) eliminates the per-column checks. Per
// column the nonzeros still accumulate in exactly the scalar order —
// each slot's one run, q ascending — so every reg result is bitwise
// identical to the generic path.

// ---- reg: width 2 ----

func (k *rowKernel) addIntoBlock2(dst, xl []float64) {
	for t, row := range k.rows {
		var a0, a1 float64
		src, val := k.run(t)
		for q, j := range src {
			v, xs := val[q], xl[int(j)*2:int(j)*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		out := dst[row*2 : row*2+2]
		out[0] += a0
		out[1] += a1
	}
}

func (k *rowKernel) fillIntoBlock2(dst, xl []float64) {
	for t := range k.rows {
		var a0, a1 float64
		src, val := k.run(t)
		for q, j := range src {
			v, xs := val[q], xl[int(j)*2:int(j)*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		out := dst[t*2 : t*2+2]
		out[0] = a0
		out[1] = a1
	}
}

// ---- reg: width 4 ----

func (k *rowKernel) addIntoBlock4(dst, xl []float64) {
	for t, row := range k.rows {
		var a0, a1, a2, a3 float64
		src, val := k.run(t)
		for q, j := range src {
			v, xs := val[q], xl[int(j)*4:int(j)*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		out := dst[row*4 : row*4+4]
		out[0] += a0
		out[1] += a1
		out[2] += a2
		out[3] += a3
	}
}

func (k *rowKernel) fillIntoBlock4(dst, xl []float64) {
	for t := range k.rows {
		var a0, a1, a2, a3 float64
		src, val := k.run(t)
		for q, j := range src {
			v, xs := val[q], xl[int(j)*4:int(j)*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		out := dst[t*4 : t*4+4]
		out[0] = a0
		out[1] = a1
		out[2] = a2
		out[3] = a3
	}
}

// ---- reg: width 8 ----

func (k *rowKernel) addIntoBlock8(dst, xl []float64) {
	for t, row := range k.rows {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		src, val := k.run(t)
		for q, j := range src {
			v, xs := val[q], xl[int(j)*8:int(j)*8+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
		}
		out := dst[row*8 : row*8+8]
		out[0] += a0
		out[1] += a1
		out[2] += a2
		out[3] += a3
		out[4] += a4
		out[5] += a5
		out[6] += a6
		out[7] += a7
	}
}

func (k *rowKernel) fillIntoBlock8(dst, xl []float64) {
	for t := range k.rows {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		src, val := k.run(t)
		for q, j := range src {
			v, xs := val[q], xl[int(j)*8:int(j)*8+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
		}
		out := dst[t*8 : t*8+8]
		out[0] = a0
		out[1] = a1
		out[2] = a2
		out[3] = a3
		out[4] = a4
		out[5] = a5
		out[6] = a6
		out[7] = a7
	}
}
