package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar references for the elementwise tape ops that run on kernels.go.
// Each is the op's original hand-written forward and backward loop pair,
// kept verbatim on raw slices (out = forward, then the parents' gradient
// accumulation given the upstream gradient og), so the kernel-backed ops
// are held to an independent schedule rather than to themselves.

func refAdd(ad, bd, og, aGrad, bGrad []float64) []float64 {
	od := make([]float64, len(ad))
	for i := range od {
		od[i] = ad[i] + bd[i]
	}
	for i, g := range og {
		aGrad[i] += g
	}
	for i, g := range og {
		bGrad[i] += g
	}
	return od
}

func refAddRow(ad []float64, m, n int, vd, og, aGrad, vGrad []float64) []float64 {
	od := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			od[i*n+j] = ad[i*n+j] + vd[j]
		}
	}
	for i, g := range og {
		aGrad[i] += g
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			vGrad[j] += og[i*n+j]
		}
	}
	return od
}

func refScale(ad []float64, s float64, og, aGrad []float64) []float64 {
	od := make([]float64, len(ad))
	for i := range od {
		od[i] = ad[i] * s
	}
	for i, g := range og {
		aGrad[i] += g * s
	}
	return od
}

func refSoftmaxRows(ad []float64, m, n int, mask, og, aGrad []float64) []float64 {
	od := make([]float64, m*n)
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		orow := od[i*n : (i+1)*n]
		maxv := math.Inf(-1)
		for j, x := range row {
			if mask != nil {
				x += mask[i*n+j]
			}
			if x > maxv {
				maxv = x
			}
		}
		sum := 0.0
		for j, x := range row {
			if mask != nil {
				x += mask[i*n+j]
			}
			e := math.Exp(x - maxv)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	for i := 0; i < m; i++ {
		orow := od[i*n : (i+1)*n]
		grow := og[i*n : (i+1)*n]
		dot := 0.0
		for j := range orow {
			dot += grow[j] * orow[j]
		}
		for j := range orow {
			aGrad[i*n+j] += orow[j] * (grow[j] - dot)
		}
	}
	return od
}

func refLayerNorm(ad []float64, m, n int, eps float64, og, aGrad []float64) []float64 {
	od := make([]float64, m*n)
	means := make([]float64, m)
	invStds := make([]float64, m)
	for i := 0; i < m; i++ {
		row := ad[i*n : (i+1)*n]
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		mu /= float64(n)
		va := 0.0
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= float64(n)
		inv := 1 / math.Sqrt(va+eps)
		means[i], invStds[i] = mu, inv
		for j, v := range row {
			od[i*n+j] = (v - mu) * inv
		}
	}
	nf := float64(n)
	for i := 0; i < m; i++ {
		y := od[i*n : (i+1)*n]
		gy := og[i*n : (i+1)*n]
		sumG, sumGY := 0.0, 0.0
		for j := 0; j < n; j++ {
			sumG += gy[j]
			sumGY += gy[j] * y[j]
		}
		inv := invStds[i]
		for j := 0; j < n; j++ {
			aGrad[i*n+j] += inv * (gy[j] - sumG/nf - y[j]*sumGY/nf)
		}
	}
	return od
}

func refTranspose(ad []float64, m, n int, og, aGrad []float64) []float64 {
	od := make([]float64, n*m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			od[j*m+i] = ad[i*n+j]
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			aGrad[i*n+j] += og[j*m+i]
		}
	}
	return od
}

// refCausalMask is the additive (T, S) mask excluding j > i.
func refCausalMask(tRows, sCols int) []float64 {
	mask := make([]float64, tRows*sCols)
	for i := 0; i < tRows; i++ {
		for j := i + 1; j < sCols; j++ {
			mask[i*sCols+j] = math.Inf(-1)
		}
	}
	return mask
}

// paramOf returns a parameter leaf holding copies of data and a pre-seeded
// gradient.
func paramOf(data, grad []float64, rows, cols int) *Tensor {
	p := Param(rows, cols)
	copy(p.Data, data)
	copy(p.Grad, grad)
	return p
}

// runBackward seeds out's upstream gradient with og and runs its backward
// closure alone.
func runBackward(out *Tensor, og []float64) {
	out.Grad = append([]float64(nil), og...)
	out.backward()
}

// TestTapeOpsMatchScalarReference holds the kernel-backed elementwise tape
// ops — Add, AddRow, Scale, SoftmaxRows (masked and unmasked), LayerNorm
// and Transpose — bit-exact against their original scalar loops: the
// forward output and every parent's Grad, with the Grads pre-seeded
// nonzero. The shapes are the decoder's (40 recipe positions, dim 32, FF
// 64, the (40, 40) self-attention and (40, 1) cross-attention scores, the
// single insight row) plus an odd (3, 7) tail.
func TestTapeOpsMatchScalarReference(t *testing.T) {
	shapes := [][2]int{{40, 32}, {40, 64}, {40, 40}, {40, 1}, {1, 32}, {1, 72}, {3, 7}}
	forEachAxpyWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			ad := randData(rng, m*n, 5)
			bd := randData(rng, m*n, 5)
			vd := randData(rng, n, 5)
			og := randData(rng, m*n, 7)
			ga := randData(rng, m*n, 0)
			gb := randData(rng, m*n, 0)
			gv := randData(rng, n, 0)

			{ // Add
				a, b := paramOf(ad, ga, m, n), paramOf(bd, gb, m, n)
				out := a.Add(b)
				runBackward(out, og)
				wa, wb := append([]float64(nil), ga...), append([]float64(nil), gb...)
				assertBitEqual(t, "Add forward", out.Data, refAdd(ad, bd, og, wa, wb))
				assertBitEqual(t, "Add a.Grad", a.Grad, wa)
				assertBitEqual(t, "Add b.Grad", b.Grad, wb)
			}
			{ // AddRow
				a, v := paramOf(ad, ga, m, n), paramOf(vd, gv, 1, n)
				out := a.AddRow(v)
				runBackward(out, og)
				wa, wv := append([]float64(nil), ga...), append([]float64(nil), gv...)
				assertBitEqual(t, "AddRow forward", out.Data, refAddRow(ad, m, n, vd, og, wa, wv))
				assertBitEqual(t, "AddRow a.Grad", a.Grad, wa)
				assertBitEqual(t, "AddRow v.Grad", v.Grad, wv)
			}
			{ // Scale, by the attention 1/sqrt(dim) and by -1 (Neg)
				for _, s := range []float64{1 / math.Sqrt(32), -1} {
					a := paramOf(ad, ga, m, n)
					out := a.Scale(s)
					runBackward(out, og)
					wa := append([]float64(nil), ga...)
					assertBitEqual(t, "Scale forward", out.Data, refScale(ad, s, og, wa))
					assertBitEqual(t, "Scale a.Grad", a.Grad, wa)
				}
			}
			{ // SoftmaxRows, unmasked and under the causal mask
				for _, mask := range [][]float64{nil, refCausalMask(m, n)} {
					a := paramOf(ad, ga, m, n)
					out := a.SoftmaxRows(mask)
					runBackward(out, og)
					wa := append([]float64(nil), ga...)
					assertBitEqual(t, "SoftmaxRows forward", out.Data, refSoftmaxRows(ad, m, n, mask, og, wa))
					assertBitEqual(t, "SoftmaxRows a.Grad", a.Grad, wa)
				}
			}
			{ // LayerNorm
				a := paramOf(ad, ga, m, n)
				out := a.LayerNorm(1e-5)
				runBackward(out, og)
				wa := append([]float64(nil), ga...)
				assertBitEqual(t, "LayerNorm forward", out.Data, refLayerNorm(ad, m, n, 1e-5, og, wa))
				assertBitEqual(t, "LayerNorm a.Grad", a.Grad, wa)
			}
			{ // Transpose (upstream gradient in the (n, m) output layout)
				a := paramOf(ad, ga, m, n)
				out := a.Transpose()
				runBackward(out, og)
				wa := append([]float64(nil), ga...)
				assertBitEqual(t, "Transpose forward", out.Data, refTranspose(ad, m, n, og, wa))
				assertBitEqual(t, "Transpose a.Grad", a.Grad, wa)
			}
		}
	})
}
