package tensor

import (
	"math"
	"sync"
)

// Tape-free flat kernels: the one loop set behind both inference and
// training.
//
// These operate directly on raw []float64 buffers with explicit shapes —
// no *Tensor wrappers, no parents slices, no backward closures, and no
// dependence on the process-global NoGrad counter. A decode session runs
// entirely on them over preallocated contiguous memory (one Data-plus-shape
// layout, the Tensor-Go style). The tape runs on them as well: MatMul's
// forward and both backward directions on MatMulInto, MatMulGradAInto and
// MatMulGradBInto; Add, AddRow, Scale, SoftmaxRows and Transpose on
// AddInPlace, AddBiasInto, ScaleInPlace, SoftmaxRowsInPlace and
// transposeInto, with their gradients on addTo and axpy1; LayerNorm on
// normRow, the row pass of NormAffineInto. Training and inference share
// one loop set and the SIMD axpy kernels.
//
// Equivalence contract: every kernel reproduces the floating-point
// operations of its scalar tape counterpart element for element — the same
// accumulation order, the same zero-skips, and the same intermediate
// rounding points (separate passes where the tape path ran separate ops).
// TestKernelsMatchTapeOps holds each inference kernel bit-exact against the
// op it mirrors; TestTapeMatMulMatchesScalarReference and
// TestTapeOpsMatchScalarReference hold the kernel-backed tape ops, forward
// and gradients, against the original scalar loops; and the core decoding
// equivalence suite and trained-parameter pins rest on this.

// MatMulInto computes dst = a·b for a of shape (m, k) and b of shape
// (k, n), overwriting dst (length m·n). It mirrors Tensor.MatMul's scalar
// schedule: per output element the products accumulate in ascending-p
// order with zero a-elements skipped.
func MatMulInto(dst, a []float64, m, k int, b []float64, n int) {
	dst = dst[:m*n]
	if n == 1 {
		// Column vector: per output element the ikj accumulation is exactly
		// the ascending, zero-skipping dot product.
		for i := 0; i < m; i++ {
			dst[i] = DotSkip(a[i*k:(i+1)*k], b[:k])
		}
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	matMulAcc(dst, a, m, k, b, n)
}

// matMulAcc accumulates dst += a·b for a of shape (m, k) and b of shape
// (k, n), adding the products straight into dst in ascending-p order per
// element with zero a-elements skipped. The k dimension runs four rows of
// b at a time through the axpy4 kernel (SIMD on amd64 — lanes are
// independent output elements, and the four row adds stay in ascending
// order per element, so the rounding schedule is unchanged); any zero
// among the four falls back to per-row axpy1 calls that preserve the skip.
func matMulAcc(dst, a []float64, m, k int, b []float64, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				for q := p; q < p+4; q++ {
					if av := arow[q]; av != 0 {
						axpy1(orow, b[q*n:q*n+n], av)
					}
				}
				continue
			}
			axpy4(orow, b[p*n:], n, arow[p:p+4])
		}
		for ; p < k; p++ {
			if av := arow[p]; av != 0 {
				axpy1(orow, b[p*n:p*n+n], av)
			}
		}
	}
}

// MatMulGradAInto accumulates da += dc·bᵀ for dc of shape (m, n), b of
// shape (k, n) and da of shape (m, k) — the a-gradient of Tensor.MatMul.
// The scalar schedule computes each element as a sequential ascending-j
// dot product from zero, with no zero skip, and then adds it into da once.
// Here the SIMD lanes hold different p instead: against bᵀ (n, k), row i
// of the product is Σ_j dc[i][j]·bᵀ[j], run four j at a time through axpy4
// into a zeroed row — per element the same adds in the same order — and
// the row is then added into da.
func MatMulGradAInto(da, dc []float64, m, n int, b []float64, k int) {
	sp := getScratch(k * (n + 1))
	defer kernelScratch.Put(sp)
	acc, bt := (*sp)[:k], (*sp)[k:]
	transposeInto(bt, b, k, n)
	for i := 0; i < m; i++ {
		for p := range acc {
			acc[p] = 0
		}
		grow := dc[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			axpy4(acc, bt[j*k:], k, grow[j:j+4])
		}
		for ; j < n; j++ {
			axpy1(acc, bt[j*k:(j+1)*k], grow[j])
		}
		addTo(da[i*k:(i+1)*k], acc)
	}
}

// MatMulGradBInto accumulates db += aᵀ·dc for a of shape (m, k), dc of
// shape (m, n) and db of shape (k, n) — the b-gradient of Tensor.MatMul.
// The scalar schedule adds the products straight into db in ascending-i
// order per element, skipping zero a-elements: exactly matMulAcc over aᵀ,
// whose rows are the columns of a, so each axpy4 call takes four rows of
// dc with their coefficients gathered from column p of a.
func MatMulGradBInto(db, a []float64, m, k int, dc []float64, n int) {
	sp := getScratch(k * m)
	defer kernelScratch.Put(sp)
	transposeInto(*sp, a, m, k)
	matMulAcc(db, *sp, k, m, dc, n)
}

// kernelScratch recycles the backward kernels' transposition buffers, so
// the training backward pass allocates nothing per matmul.
var kernelScratch = sync.Pool{New: func() any { return new([]float64) }}

// getScratch takes a buffer of length n from kernelScratch.
func getScratch(n int) *[]float64 {
	sp := kernelScratch.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// transposeInto writes the (cols, rows) transpose of the (rows, cols)
// matrix src into dst, one contiguous dst row at a time.
func transposeInto(dst, src []float64, rows, cols int) {
	for c := 0; c < cols; c++ {
		d := dst[c*rows : (c+1)*rows]
		for r := range d {
			d[r] = src[r*cols+c]
		}
	}
}

// DotSkip returns the q·k dot product accumulated in ascending index
// order with the q==0 skip — exactly the score dot of CausalAttendInto
// (one element of the tape's q·Kᵀ MatMul). Exported so precomputed score
// tables can be built from the identical floating-point schedule.
func DotSkip(q, k []float64) float64 {
	s := 0.0
	for p, qv := range q {
		if qv == 0 {
			continue
		}
		s += qv * k[p]
	}
	return s
}

// Axpy accumulates dst[i] += a*src[i], one rounded multiply and one
// rounded add per element — the row primitive of the attention value
// accumulation, exported for table-driven attention gathers.
func Axpy(dst, src []float64, a float64) { axpy1(dst, src, a) }

// AddBiasInto adds the row vector bias (length n) to every row of the
// (m, n) matrix dst in place, mirroring Tensor.AddRow.
func AddBiasInto(dst []float64, m, n int, bias []float64) {
	for i := 0; i < m; i++ {
		addTo(dst[i*n:(i+1)*n], bias)
	}
}

// LinearInto computes dst = x·w + bias for x of shape (m, k) and w of
// shape (k, n) — the flat form of nn.Linear.Forward (MatMul then AddRow).
func LinearInto(dst, x []float64, m, k int, w []float64, n int, bias []float64) {
	MatMulInto(dst, x, m, k, w, n)
	AddBiasInto(dst, m, n, bias)
}

// NormAffineInto computes dst = LayerNorm(x)·γ + β row-wise for x of shape
// (m, n), mirroring nn.LayerNorm.Forward: the normalization pass of
// Tensor.LayerNorm followed by separate MulRow and AddRow passes, so every
// intermediate rounds exactly where the tape path rounded.
func NormAffineInto(dst, x []float64, m, n int, eps float64, gamma, beta []float64) {
	for i := 0; i < m; i++ {
		orow := dst[i*n : (i+1)*n]
		normRow(orow, x[i*n:(i+1)*n], eps)
		for j := range orow {
			orow[j] *= gamma[j]
		}
		for j := range orow {
			orow[j] += beta[j]
		}
	}
}

// normRow writes the zero-mean, unit-variance normalization of row into
// dst and returns the inverse standard deviation 1/sqrt(var+eps) — the
// row pass of Tensor.LayerNorm, whose backward reuses the returned factor.
func normRow(dst, row []float64, eps float64) float64 {
	nf := float64(len(row))
	mu := 0.0
	for _, v := range row {
		mu += v
	}
	mu /= nf
	va := 0.0
	for _, v := range row {
		d := v - mu
		va += d * d
	}
	va /= nf
	inv := 1 / math.Sqrt(va+eps)
	for j, v := range row {
		dst[j] = (v - mu) * inv
	}
	return inv
}

// GELUInto applies the tanh-approximated GELU of Tensor.GELU elementwise,
// writing f(x[i]) into dst[i]. dst may alias x.
func GELUInto(dst, x []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		dst[i] = 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
	}
}

// AddInPlace accumulates dst[i] += src[i] — the flat residual connection,
// mirroring Tensor.Add's per-element single rounding.
func AddInPlace(dst, src []float64) {
	addTo(dst, src)
}

// ScaleInPlace multiplies every element by s, mirroring Tensor.Scale.
func ScaleInPlace(dst []float64, s float64) {
	for i := range dst {
		dst[i] *= s
	}
}

// SoftmaxRowsInPlace applies the numerically stable row softmax of
// Tensor.SoftmaxRows (mask-free form) to the (m, n) matrix dst in place.
func SoftmaxRowsInPlace(dst []float64, m, n int) {
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for _, x := range row {
			if x > maxv {
				maxv = x
			}
		}
		sum := 0.0
		for j, x := range row {
			e := math.Exp(x - maxv)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// CausalAttendInto runs one causal self-attention step for a single
// sequence against its flat KV cache: q, krow and vrow are the (already
// projected) query/key/value rows of the new position, kcache and vcache
// hold the tLen previous rows contiguously (row r at [r*dim, (r+1)*dim)).
// The new key/value rows are appended at row tLen, the query attends over
// the tLen+1 filled rows, and the context vector is written to ctx. It
// reproduces the last row of the tape's causal attention (Attention.Forward)
// exactly: the q·Kᵀ zero-skip dot product of MatMul, the scale, the
// exp/sum softmax of SoftmaxRows (the last row is unmasked), and the w==0
// skip of the attn·V MatMul. scores is scratch of length ≥ tLen+1.
func CausalAttendInto(ctx, q, krow, vrow, kcache, vcache []float64, tLen, dim int, scale float64, scores []float64) {
	copy(kcache[tLen*dim:(tLen+1)*dim], krow)
	copy(vcache[tLen*dim:(tLen+1)*dim], vrow)
	tLen++
	scores = scores[:tLen]
	// Score dots. Each dot's accumulation chain is strictly sequential
	// (p-ascending with the zero-skip, matching MatMul), so it cannot be
	// vectorized without changing the rounding — instead four independent
	// chains run interleaved for instruction-level parallelism. The max is
	// exact, so tracking it outside the original loop shape is safe.
	maxv := math.Inf(-1)
	j := 0
	for ; j+4 <= tLen; j += 4 {
		k0 := kcache[j*dim : (j+1)*dim]
		k1 := kcache[(j+1)*dim : (j+2)*dim]
		k2 := kcache[(j+2)*dim : (j+3)*dim]
		k3 := kcache[(j+3)*dim : (j+4)*dim]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for p, qv := range q {
			if qv == 0 {
				continue
			}
			s0 += qv * k0[p]
			s1 += qv * k1[p]
			s2 += qv * k2[p]
			s3 += qv * k3[p]
		}
		scores[j] = s0 * scale
		scores[j+1] = s1 * scale
		scores[j+2] = s2 * scale
		scores[j+3] = s3 * scale
	}
	for ; j < tLen; j++ {
		kr := kcache[j*dim : (j+1)*dim]
		s := 0.0
		for p, qv := range q {
			if qv == 0 {
				continue
			}
			s += qv * kr[p]
		}
		scores[j] = s * scale
	}
	for _, s := range scores {
		if s > maxv {
			maxv = s
		}
	}
	sum := 0.0
	for j, s := range scores {
		e := math.Exp(s - maxv)
		scores[j] = e
		sum += e
	}
	for i := range ctx {
		ctx[i] = 0
	}
	// Weighted value sum: per output element the adds run in ascending-j
	// order with the w==0 skip, exactly as the attn·V MatMul — four cache
	// rows per axpy4 pass. The weights are normalized in place first, the
	// same single division per weight as SoftmaxRows.
	for j := range scores {
		scores[j] /= sum
	}
	j = 0
	for ; j+4 <= tLen; j += 4 {
		w0, w1, w2, w3 := scores[j], scores[j+1], scores[j+2], scores[j+3]
		if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
			for q := j; q < j+4; q++ {
				if w := scores[q]; w != 0 {
					axpy1(ctx, vcache[q*dim:(q+1)*dim], w)
				}
			}
			continue
		}
		axpy4(ctx, vcache[j*dim:], dim, scores[j:j+4])
	}
	for ; j < tLen; j++ {
		if w := scores[j]; w != 0 {
			axpy1(ctx, vcache[j*dim:(j+1)*dim], w)
		}
	}
}
