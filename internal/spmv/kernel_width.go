package spmv

// Width-specialized SpMM loops (the "reg" backend).
//
// The reg loops exist because the generic valueBlock keeps its w
// accumulators in a scratch slice: every `acc[c] += v * xs[c]` pays a
// bounds check and a store the compiler cannot hoist, because acc's
// length is only known at run time. With the width fixed at compile
// time the accumulators become locals the compiler keeps in registers,
// and slicing xs to a constant length (`x[j*4 : j*4+4]`) eliminates the
// per-column checks. Per column the nonzeros still accumulate in
// exactly the scalar order — local run then external run, q ascending —
// so every reg result is bitwise identical to the generic path.

// ---- reg: width 2 ----

func (k *rowKernel) addIntoBlock2(dst, x, ext []float64) {
	for t, row := range k.rows {
		var a0, a1 float64
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			v := k.locVal[q]
			xs := x[k.locSrc[q]*2 : k.locSrc[q]*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			v := k.extVal[q]
			xs := ext[k.extSrc[q]*2 : k.extSrc[q]*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		out := dst[row*2 : row*2+2]
		out[0] += a0
		out[1] += a1
	}
}

func (k *rowKernel) fillIntoBlock2(dst, x, ext []float64) {
	for t := range k.rows {
		var a0, a1 float64
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			v := k.locVal[q]
			xs := x[k.locSrc[q]*2 : k.locSrc[q]*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			v := k.extVal[q]
			xs := ext[k.extSrc[q]*2 : k.extSrc[q]*2+2]
			a0 += v * xs[0]
			a1 += v * xs[1]
		}
		out := dst[t*2 : t*2+2]
		out[0] = a0
		out[1] = a1
	}
}

// ---- reg: width 4 ----

func (k *rowKernel) addIntoBlock4(dst, x, ext []float64) {
	for t, row := range k.rows {
		var a0, a1, a2, a3 float64
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			v := k.locVal[q]
			xs := x[k.locSrc[q]*4 : k.locSrc[q]*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			v := k.extVal[q]
			xs := ext[k.extSrc[q]*4 : k.extSrc[q]*4+4]
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

func (k *rowKernel) fillIntoBlock4(dst, x, ext []float64) {
	for t := range k.rows {
		var a0, a1, a2, a3 float64
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			v := k.locVal[q]
			xs := x[k.locSrc[q]*4 : k.locSrc[q]*4+4]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			v := k.extVal[q]
			xs := ext[k.extSrc[q]*4 : k.extSrc[q]*4+4]
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

func (k *rowKernel) addIntoBlock8(dst, x, ext []float64) {
	for t, row := range k.rows {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			v := k.locVal[q]
			xs := x[k.locSrc[q]*8 : k.locSrc[q]*8+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			v := k.extVal[q]
			xs := ext[k.extSrc[q]*8 : k.extSrc[q]*8+8]
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

func (k *rowKernel) fillIntoBlock8(dst, x, ext []float64) {
	for t := range k.rows {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for q := k.locPtr[t]; q < k.locPtr[t+1]; q++ {
			v := k.locVal[q]
			xs := x[k.locSrc[q]*8 : k.locSrc[q]*8+8]
			a0 += v * xs[0]
			a1 += v * xs[1]
			a2 += v * xs[2]
			a3 += v * xs[3]
			a4 += v * xs[4]
			a5 += v * xs[5]
			a6 += v * xs[6]
			a7 += v * xs[7]
		}
		for q := k.extPtr[t]; q < k.extPtr[t+1]; q++ {
			v := k.extVal[q]
			xs := ext[k.extSrc[q]*8 : k.extSrc[q]*8+8]
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
